//===----------------------------------------------------------------------===//
///
/// \file
/// The serving workloads: a Pool over loopback TCP driven by the
/// closed-loop load generator.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SERVING_H
#define PERFBENCH_SERVING_H

#include "Common.h"

namespace pb {

/// rpc_small, rpc_verbs or conn_churn.
void runServing(const RunOptions &O, RunResult &Res);

} // namespace pb

#endif // PERFBENCH_SERVING_H
