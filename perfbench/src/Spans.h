//===----------------------------------------------------------------------===//
///
/// \file
/// In-memory spans for the traced run.  The benchmark opens a span around
/// each of its own calls into a layer's public entry points (and one per
/// operation the load generator completes); nothing inside the runtime is
/// instrumented.  Spans are kept in memory and written out as a Chrome
/// trace when the run ends; a layer's self time is its spans' durations
/// minus the parts their child spans cover.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

class Spans {
public:
  struct Span {
    const char *Layer;
    const char *Name;
    double Start; ///< wallSec() at open.
    double Dur;
    int32_t Parent; ///< Index of the enclosing span, -1 at top level.
  };

  /// Closes its span on destruction.  Inert when tracing is off.
  class Scope {
  public:
    Scope(Spans *S, const char *Layer, const char *Name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Spans *S;
    int32_t Idx = -1;
  };

  void enable(bool On) { Enabled = On; }
  bool on() const { return Enabled; }

  /// Records an already-finished leaf span (the load generator's
  /// operations, which interleave and so cannot nest by scope).
  void add(const char *Layer, const char *Name, double Start, double Dur);

  /// Durations (seconds) of every span called \p Name.
  std::vector<double> durations(const std::string &Name) const;
  /// Self time (seconds) summed per layer.
  std::map<std::string, double> selfTimeByLayer() const;

  /// Writes at most \p MaxSpans spans as a Chrome trace (chrome://tracing,
  /// Perfetto).  False if the file could not be written.
  bool writeChrome(const std::string &Path, size_t MaxSpans) const;

private:
  bool Enabled = false;
  std::vector<Span> All;
  std::vector<int32_t> Open;
};

} // namespace pb

#endif // PERFBENCH_SPANS_H
