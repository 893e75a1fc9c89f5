//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's per-layer metrics.
///
/// Counts are deltas of the runtime's Stats counters over the timed phase,
/// divided by operations.  Times come from spans the benchmark opens
/// around its own calls into each layer's public entry points, with inputs
/// drawn from the workload's own stream.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Common.h"
#include "Spans.h"
#include "support/Stats.h"

#include <string>
#include <vector>

namespace pb {

/// io/sched/core/control/vm/regex/object counts per op from \p D, and
/// vm.instructions_per_cpu_us from the server CPU \p CpuSec.
void counterMetrics(const osc::Stats::Snapshot &D, uint64_t Ops,
                    double CpuSec, Metrics &M);

/// io.take_ready_us: Reactor::takeReady over \p Ports parked ports, one
/// of them ready.
void timeTakeReady(int Ports, Spans &Tr, Metrics &M, RunResult &Res);
/// sched.park_wake_us: green-thread channel ping-pong, per park/wake.
void timeParkWake(Spans &Tr, Metrics &M, RunResult &Res);
/// compiler.interp_boot_ms and compiler.protocol_load_ms.
void timeCompiler(Spans &Tr, Metrics &M, RunResult &Res);
/// sexp.read_us_per_op: the reader over the payloads of \p Ops ops.
void timeReader(const std::vector<std::string> &Payloads, uint64_t Ops,
                Spans &Tr, Metrics &M, RunResult &Res);
/// regex.search_ns_per_byte: compile/init/feed/finish over the MATCH
/// payloads of the rpc_verbs stream for \p Seed, each result checked
/// against its planted offsets.
void timeRegex(uint64_t Seed, Spans &Tr, Metrics &M, RunResult &Res);

/// Prints each layer's self time per operation, from the spans.
void printSelfTimes(const Spans &Tr, uint64_t Ops);

} // namespace pb

#endif // PERFBENCH_LAYERS_H
