//===----------------------------------------------------------------------===//
///
/// \file
/// Small helpers shared by the benchmark's parts: clocks, CPU time, peak
/// RSS, quantiles and the seeded generator every input is drawn from.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

/// Monotonic wall clock in seconds.
double wallSec();
/// CPU time of the calling thread, in seconds.
double threadCpuSec();
/// CPU time of the whole process (every thread), in seconds.
double processCpuSec();
/// Peak resident set of the process so far, in MB.
double peakRssMb();

/// Pins the calling thread, and every thread it creates later, to the
/// last CPU the process may use, under SCHED_BATCH.  The last, because a
/// virtual machine's device interrupts and cross-CPU calls land mostly on
/// CPU 0 and interrupt whatever runs there.  On a shared virtual machine a
/// wakeup across CPUs costs from tens of microseconds to milliseconds
/// depending on the host's load; with the load generator and
/// the server threads time-sharing one CPU no operation waits on such a
/// wakeup.  SCHED_BATCH stops a woken thread from preempting the running
/// one, so each thread runs until it blocks: without it the interleaving
/// of generator and server settled into one of two patterns per run, and
/// rpc_small's p50 with it.
void scheduleOnOneCpu();

/// Linear-interpolated quantile (0 <= Q <= 1) of \p V; 0 when empty.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

/// splitmix64: a tiny, well-mixed, seedable generator.  Every input the
/// benchmark sends is a function of (seed, operation index) through it.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo + static_cast<int64_t>(next() % static_cast<uint64_t>(Hi - Lo + 1));
  }
  bool chance(int Num, int Den) { return range(0, Den - 1) < Num; }

private:
  uint64_t S;
};

/// Warm-up before a timed phase: one second, or a quarter of a short one.
inline double warmupSec(double Seconds) {
  return Seconds < 4 ? Seconds / 4 : 1.0;
}

/// A timed phase is cut into one-second windows, and the rate, median
/// latency and CPU per operation it reports are medians over its windows:
/// a burst of noise from outside the process (other tenants of a shared
/// host) then moves one window, not the run's figure.
constexpr double WindowSec = 1.0;

/// State at a window boundary.
struct WindowMark {
  double T = 0;       ///< wallSec().
  double ProcCpu = 0; ///< processCpuSec().
  double OwnCpu = 0;  ///< The measuring thread's threadCpuSec().
  uint64_t Ops = 0;   ///< Operations completed so far.
  size_t NLat = 0;    ///< Latency samples recorded so far.
  static WindowMark now(uint64_t Ops, size_t NLat);
};

struct Windowed {
  double OpsPerSec = 0;
  double P50Ms = 0;
  double P99Ms = 0;
  double CpuUsPerOp = 0;
};

/// A window's p99 is used only when it has ten samples beyond it.
constexpr size_t MinP99Samples = 1000;

/// Medians over the windows between consecutive marks (a trailing window
/// shorter than half a window is dropped).  p99 is the median of the
/// windows' p99s when most windows hold MinP99Samples, else the whole
/// phase's p99.  CPU per op is the process's
/// CPU minus the measuring thread's when \p ServerCpu (the load generator
/// is the measuring thread), else the measuring thread's own.
Windowed windowed(const std::vector<WindowMark> &Marks,
                  const std::vector<double> &LatMs, bool ServerCpu);

/// Mixes a seed with a stream tag and an index into a fresh seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Tag, uint64_t Index);

/// The metrics one run reports: name -> (value, unit), in insertion-stable
/// name order.
struct Metric {
  double Value = 0;
  std::string Unit;
};
using Metrics = std::map<std::string, Metric>;

/// What every run ends with.
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  Metrics M;
  std::vector<std::string> Errors; ///< First few correctness failures.

  void fail(const std::string &Why) {
    Correct = false;
    if (Errors.size() < 8)
      Errors.push_back(Why);
  }
};

/// Options shared by every workload.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut; ///< Chrome-trace file written by a traced run.
  int Workers = 0;      ///< 0: the workload's own worker count.
  bool OneShotSwitch = true;
};

/// Latency summary lines: p50, p99 and the deepest percentile that has
/// at least ten samples beyond it, with the sample count.
void printLatencySummary(const char *Label, const std::vector<double> &LatMs);

} // namespace pb

#endif // PERFBENCH_COMMON_H
