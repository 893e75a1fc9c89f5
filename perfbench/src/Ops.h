//===----------------------------------------------------------------------===//
///
/// \file
/// The serving workloads' request streams and the expected replies,
/// computed apart from the program.
///
/// Operation i of a run is a pure function of (workload, seed, i): every
/// run with the same seed sends the same requests in the same order.  Ops
/// come in rounds — each round holds every verb in the workload's fixed
/// proportions, shuffled by the seed — so a run that ends on a round
/// boundary has exactly the workload's mix.
///
/// Expected replies never come from the runtime under test:
///   - EVAL / STREAM values come from refEval, a C++ reader + fixnum
///     evaluator written to the protocol's calculator rules;
///   - MATCH and MATCH/STREAM offsets are known by construction: the match
///     is planted at a chosen offset in filler drawn from an alphabet the
///     pattern cannot match.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_OPS_H
#define PERFBENCH_OPS_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

enum class Verb : uint8_t { Ping, Eval, Match, MatchStream, Stream };
constexpr int NumVerbs = 5;
const char *verbName(Verb V);

/// One protocol exchange: what to send and what must come back.
struct Exchange {
  Verb V = Verb::Ping;
  /// The request line (no newline).  For MATCH/STREAM: the verb line.
  std::string Line;
  /// MATCH/STREAM only: chunk lines, sent one per AGAIN reply.
  std::vector<std::string> Chunks;
  /// Expected reply lines in order.  STREAM: every PART then DONE.
  /// MATCH/STREAM: the one deciding line (FOUND s e / NOMATCH); AGAIN
  /// replies before it are the lock-step protocol, not checked values.
  std::vector<std::string> Expect;
  /// The datum the server reads (EVAL / STREAM payload), for the traced
  /// run's reader timing.  Empty for other verbs.
  std::string Payload;
};

/// The fixnum calculator's answer for \p Text, the way the protocol's
/// safe-eval defines it: the decimal value, or nullopt for ERR.
std::optional<int64_t> refEval(std::string_view Text);

class OpStream {
public:
  /// \p Workload: rpc_small, rpc_verbs or conn_churn.
  OpStream(const std::string &Workload, uint64_t Seed);

  Exchange make(uint64_t Index) const;
  uint64_t roundSize() const { return Round.size(); }
  /// Verb of operation \p Index (without building it).
  Verb verbOf(uint64_t Index) const;

private:
  uint64_t Seed;
  std::vector<Verb> Round; ///< One round's verbs, in unshuffled order.
  bool Large = false;      ///< rpc_verbs: large EVAL trees.
};

} // namespace pb

#endif // PERFBENCH_OPS_H
