//===----------------------------------------------------------------------===//
///
/// \file
/// The paper_control workload: the paper's programs run in-process on one
/// Interp, with no I/O, round-robin, one program run per operation.
///
/// Seven programs (an odd number, equally weighted, so the median falls
/// inside one program's runs): tak via call/1cc and via call/cc, the
/// Figure 5 thread system on call/1cc and on call/cc, deep recursion
/// through one-shot overflow, a generator loop and an effect-handler loop.
/// The seed shifts each program's inputs without changing how much work
/// it does (tak is translation invariant; the others add seeded salts),
/// and every result is checked against a C++ reference, with call counts
/// checked against the interpreter's counters.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PAPER_H
#define PERFBENCH_PAPER_H

#include "Common.h"
#include "Spans.h"

namespace pb {

/// The paper_control workload.
void runPaper(const RunOptions &O, RunResult &Res);

/// Times every program on a side interpreter (median of fifteen runs
/// each) into the core.* / control.* program metrics: the traced run of a
/// serving workload reports them too, where they should not change.
void timePrograms(uint64_t Seed, Spans &Tr, Metrics &M, RunResult &Res);

} // namespace pb

#endif // PERFBENCH_PAPER_H
