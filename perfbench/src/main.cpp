//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench: one workload per process.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--trace-out <file>] [--workers <n>] [--oneshot-switch <0|1>]
///
/// Workloads: rpc_small, rpc_verbs, conn_churn (a Pool over loopback TCP)
/// and paper_control (the paper's programs in-process; a reference
/// workload that BENCHMARK.json does not list, because the host's speed
/// phases move it by more than any bound allowed).  Human-readable
/// lines come first; the last line of standard output is one JSON object
/// with correct, attempted, failed and metrics — the end-to-end metrics
/// untraced, the per-layer metrics with --trace 1.  --workers and
/// --oneshot-switch change the serving workloads' pool for reference
/// figures (the README's); the benchmark itself never passes them.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Paper.h"
#include "Serving.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace pb;

static int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "rpc_small|rpc_verbs|conn_churn|paper_control --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--workers N] "
               "[--oneshot-switch 0|1]\n",
               Why);
  return 2;
}

int main(int Argc, char **Argv) {
  RunOptions O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(V);
    else if (A == "--trace")
      O.Trace = std::atoi(V) != 0;
    else if (A == "--trace-out")
      O.TraceOut = V;
    else if (A == "--workers")
      O.Workers = std::atoi(V);
    else if (A == "--oneshot-switch")
      O.OneShotSwitch = std::atoi(V) != 0;
    else
      return usage(("unknown option " + A).c_str());
  }
  bool Serving = O.Workload == "rpc_small" || O.Workload == "rpc_verbs" ||
                 O.Workload == "conn_churn";
  if (!Serving && O.Workload != "paper_control")
    return usage(("unknown workload '" + O.Workload + "'").c_str());
  if (!(O.Seconds > 0))
    return usage("--seconds must be positive");

  scheduleOnOneCpu();
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0);
  std::fflush(stdout);
  RunResult Res;
  if (Serving)
    runServing(O, Res);
  else
    runPaper(O, Res);

  for (const std::string &E : Res.Errors)
    std::printf("CHECK FAILED: %s\n", E.c_str());
  std::string Json = "{";
  bool First = true;
  for (auto &[Name, M] : Res.M) {
    if (!std::isfinite(M.Value)) {
      std::printf("CHECK FAILED: metric %s is not finite\n", Name.c_str());
      Res.Correct = false;
      M.Value = 0;
    }
    std::printf("metric %-34s %.6g %s\n", Name.c_str(), M.Value, M.Unit.c_str());
    char Buf[128];
    std::snprintf(Buf, sizeof Buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  First ? "" : ", ", Name.c_str(), M.Value, M.Unit.c_str());
    Json += Buf;
    First = false;
  }
  Json += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Res.Correct ? "true" : "false",
              static_cast<unsigned long long>(Res.Attempted ? Res.Attempted : 1),
              static_cast<unsigned long long>(Res.Failed), Json.c_str());
  return 0;
}
