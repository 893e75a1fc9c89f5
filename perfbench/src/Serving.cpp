#include "Serving.h"
#include "Layers.h"
#include "LoadGen.h"
#include "Paper.h"

#include "io/Reactor.h"
#include "osc.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

using namespace pb;

namespace {

/// The load shape: at most 4 connections, one outstanding exchange (or
/// operation) on each, in a closed loop.  ParkedPorts is what one shard holds parked in
/// steady state — its connections plus the acceptor's listener and the
/// taker's wakeup port — and sizes the takeReady timing.
struct Shape {
  int Workers = 1;
  int Conns = 4;
  bool Churn = false;
  int ParkedPorts = 6;
};

Shape shapeOf(const RunOptions &O) {
  Shape S;
  if (O.Workload == "conn_churn")
    S = {2, 4, true, 4};
  if (O.Workers > 0)
    S.Workers = O.Workers;
  return S;
}

osc::ServeOptions serveOptions(const RunOptions &O, const Shape &S) {
  osc::ServeOptions SO;
  SO.Workers = S.Workers;
  SO.VmCfg.SchedOneShotSwitch = O.OneShotSwitch;
  return SO;
}

/// Lets handler threads finish the bookkeeping after their last reply,
/// so counter snapshots bracket whole operations.
void settle() { std::this_thread::sleep_for(std::chrono::milliseconds(20)); }

/// One cold start: Pool::start until every worker has answered a first
/// request.  Connections land on shards by the kernel's SO_REUSEPORT hash,
/// so it keeps connecting until each worker's RequestsServed moved.
double coldStart(const osc::ServeOptions &SO, RunResult &Res) {
  double T0 = wallSec();
  osc::Pool P(SO);
  if (!P.start()) {
    Res.fail("pool start: " + P.error().Message);
    return 0;
  }
  std::vector<std::unique_ptr<osc::Client>> Cs;
  auto AllServed = [&] {
    for (int W = 0; W != P.workers(); ++W)
      if ((P.snapshot(W) - P.baseline(W)).RequestsServed == 0)
        return false;
    return true;
  };
  while (!AllServed()) {
    auto C = std::make_unique<osc::Client>();
    std::string Err, Reply;
    if (Cs.size() == 64 || !C->connect(P.tcpPort(), Err) ||
        !C->request("PING", Reply) || Reply != "PONG") {
      Res.fail("cold start: no PONG from every worker (" + Err + ")");
      break;
    }
    Cs.push_back(std::move(C));
  }
  double T = wallSec() - T0;
  Cs.clear();
  P.stop();
  return T;
}

struct PoolRun {
  PhaseStats T;           ///< The timed phase.
  uint64_t Completed = 0; ///< Every phase, warm-up included.
  osc::Stats::Snapshot D; ///< Counter deltas over the timed phase.
  std::vector<uint64_t> Served; ///< Per worker, timed phase.
  double ServerCpuSec = 0;
};

/// The properties every serving run must keep, checked after stop().
void checkPool(const osc::Pool &P, uint64_t Completed, bool OneShot,
               RunResult &Res) {
  if (!P.error().ok())
    Res.fail("pool error: " + P.error().Message);
  osc::Stats::Snapshot Sum;
  for (int W = 0; W != P.workers(); ++W) {
    osc::Stats::Snapshot D = P.snapshot(W) - P.baseline(W);
    if (OneShot && D.WordsCopied != 0)
      Res.fail("worker " + std::to_string(W) + " copied " +
               std::to_string(D.WordsCopied) + " stack words");
    Sum += D;
  }
  if (Sum.IoParks != Sum.IoWakes)
    Res.fail("IoParks " + std::to_string(Sum.IoParks) + " != IoWakes " +
             std::to_string(Sum.IoWakes) + " after stop");
  // A failed operation may or may not have reached the server; the
  // failure itself is already reported.
  if (Res.Failed == 0 && Sum.RequestsServed != Completed)
    Res.fail("RequestsServed " + std::to_string(Sum.RequestsServed) +
             " != completed operations " + std::to_string(Completed));
}

PoolRun runPool(const RunOptions &O, const Shape &S, const OpStream &Ops,
                double Seconds, bool Record, Spans *Tr, RunResult &Res) {
  PoolRun R;
  osc::Pool P(serveOptions(O, S));
  if (!P.start()) {
    Res.fail("pool start: " + P.error().Message);
    return R;
  }
  auto PerWorker = [&P] {
    std::vector<osc::Stats::Snapshot> V;
    for (int W = 0; W != P.workers(); ++W)
      V.push_back(P.snapshot(W));
    return V;
  };
  {
    LoadGen G(Ops, P.tcpPort(), S.Conns, S.Churn, Res);
    if (G.start()) {
      PhaseStats W = G.run(warmupSec(Seconds), false);
      settle();
      auto S0 = PerWorker();
      double C0 = processCpuSec();
      R.T = G.run(Seconds, Record, Tr);
      double C1 = processCpuSec();
      settle();
      auto S1 = PerWorker();
      R.Completed = W.Completed + R.T.Completed;
      Res.Failed += W.Failed + R.T.Failed;
      Res.Attempted += R.Completed + W.Failed + R.T.Failed;
      R.ServerCpuSec = (C1 - C0) - R.T.GenCpuSec;
      for (size_t I = 0; I != S0.size(); ++I) {
        osc::Stats::Snapshot D = S1[I] - S0[I];
        R.D += D;
        R.Served.push_back(D.RequestsServed);
      }
    }
  }
  P.stop();
  checkPool(P, R.Completed, O.OneShotSwitch, Res);
  return R;
}

/// Serves \p Count operations on one interpreter hosted through the same
/// public calls Server::start makes, lets the serving program end, then
/// times a full collection of what it left behind.
void collectAfterServing(const RunOptions &O, const Shape &S,
                         const OpStream &Ops, uint64_t Count, Spans &Tr,
                         RunResult &Res) {
  osc::Config Cfg;
  Cfg.SchedOneShotSwitch = O.OneShotSwitch;
  osc::Interp I(Cfg);
  uint16_t Port = 0;
  std::string Err;
  int Fd = osc::openListener(Port, 128, Err);
  if (Fd < 0) {
    Res.fail("listener: " + Err);
    return;
  }
  osc::Reactor &Rx = I.vm().reactor();
  uint32_t Lid = Rx.addPort(Fd, osc::Port::Kind::Listener);
  Rx.port(Lid)->setTcpPort(Port);
  osc::ServeOptions SO;
  I.defineGlobal("*listener*", osc::Value::fixnum(Lid));
  I.defineGlobal("*max-inflight*", osc::Value::fixnum(SO.MaxInflight));
  I.defineGlobal("*preempt*", osc::Value::fixnum(SO.PreemptInterval));
  I.defineGlobal("*max-conns*", osc::Value::fixnum(SO.MaxConns));
  I.defineGlobal("*conn-deadline-ms*", osc::Value::fixnum(SO.ConnDeadlineMs));
  osc::Interp::Result R;
  std::thread Th([&] { R = I.eval(osc::Server::serveSource()); });
  {
    LoadGen G(Ops, Port, S.Conns, S.Churn, Res);
    if (G.start()) {
      PhaseStats P = G.runCount(Count);
      Res.Failed += P.Failed;
      Res.Attempted += P.Completed + P.Failed;
    }
  }
  osc::Client C;
  std::string Reply;
  if (!C.connect(Port, Err) || !C.request("QUIT", Reply) || Reply != "BYE")
    Res.fail("QUIT: no BYE (" + Err + ")");
  C.close();
  Th.join();
  if (!R.Ok)
    Res.fail("serving program: " + R.Error);
  double T0 = wallSec();
  {
    Spans::Scope Sc(&Tr, "object", "object.collect");
    I.collect();
  }
  Res.M["object.gc_pause_ms_end"] = {(wallSec() - T0) * 1e3, "ms"};
  Res.M["object.live_bytes_end"] = {double(I.heap().liveBytesAfterLastGC()),
                                    "B"};
}

void printVerbLatency(const PhaseStats &T) {
  std::vector<double> By[NumVerbs];
  for (size_t I = 0; I != T.LatMs.size(); ++I)
    By[T.LatVerb[I]].push_back(T.LatMs[I]);
  for (int V = 0; V != NumVerbs; ++V)
    if (!By[V].empty())
      printLatencySummary(verbName(static_cast<Verb>(V)), By[V]);
}

} // namespace

void pb::runServing(const RunOptions &O, RunResult &Res) {
  Shape S = shapeOf(O);
  OpStream Ops(O.Workload, O.Seed);
  if (!O.Trace) {
    std::vector<double> Setup;
    for (int K = 0; K != 21; ++K)
      Setup.push_back(coldStart(serveOptions(O, S), Res));
    PoolRun R = runPool(O, S, Ops, O.Seconds, true, nullptr, Res);
    uint64_t N = R.T.Completed ? R.T.Completed : 1;
    Windowed Win = windowed(R.T.Marks, R.T.LatMs, /*ServerCpu=*/true);
    Res.M["setup_s"] = {median(Setup), "s"};
    Res.M["ops_per_s"] = {Win.OpsPerSec, "1/s"};
    Res.M["latency_p50_ms"] = {Win.P50Ms, "ms"};
    Res.M["latency_p99_ms"] = {Win.P99Ms, "ms"};
    Res.M["cpu_us_per_op"] = {Win.CpuUsPerOp, "us"};
    Res.M["peak_rss_mb"] = {peakRssMb(), "MB"};
    printLatencySummary("all", R.T.LatMs);
    printVerbLatency(R.T);
    std::printf("timed_ops %llu in %.3f s: %.1f ops/s, server cpu %.3f us/op "
                "(whole phase); gc_in_timed_phase %llu\n",
                static_cast<unsigned long long>(R.T.Completed), R.T.WallSec,
                double(R.T.Completed) / R.T.WallSec,
                R.ServerCpuSec / double(N) * 1e6,
                static_cast<unsigned long long>(R.D.GcCount));
    std::printf("generator cpu_us_per_op %.3f busy_share %.3f\n",
                R.T.GenCpuSec / double(N) * 1e6, R.T.GenCpuSec / R.T.WallSec);
    return;
  }

  // Traced run: an untraced and a traced phase, each on a fresh pool so
  // the heap growth of one does not tax the other; their throughput
  // difference is the tracing overhead.
  Spans Tr;
  double Half = O.Seconds / 2;
  PoolRun U = runPool(O, S, Ops, Half, false, nullptr, Res);
  Tr.enable(true);
  PoolRun T = runPool(O, S, Ops, Half, true, &Tr, Res);
  double OpsU = double(U.T.Completed) / U.T.WallSec;
  double OpsT = double(T.T.Completed) / T.T.WallSec;
  std::printf("trace_overhead_pct %.2f (untraced %.1f ops/s, traced %.1f ops/s)\n",
              (OpsU / OpsT - 1) * 100, OpsU, OpsT);

  counterMetrics(T.D, T.T.Completed, T.ServerCpuSec, Res.M);
  uint64_t Max = 0, Sum = 0;
  for (uint64_t N : T.Served) {
    Max = N > Max ? N : Max;
    Sum += N;
  }
  Res.M["serve.shard_share_max"] = {Sum ? double(Max) / double(Sum) : 0,
                                    "ratio"};
  collectAfterServing(O, S, Ops, T.Completed, Tr, Res);

  std::vector<std::string> Payloads;
  uint64_t ReadOps = 100 * Ops.roundSize();
  for (uint64_t Idx = 0; Idx != ReadOps; ++Idx) {
    Exchange E = Ops.make(Idx);
    if (E.V == Verb::Eval || E.V == Verb::Stream)
      Payloads.push_back(E.Payload);
  }
  timeReader(Payloads, ReadOps, Tr, Res.M, Res);
  timeTakeReady(S.ParkedPorts, Tr, Res.M, Res);
  timeParkWake(Tr, Res.M, Res);
  timeCompiler(Tr, Res.M, Res);
  timeRegex(O.Seed, Tr, Res.M, Res);
  timePrograms(O.Seed, Tr, Res.M, Res);
  printSelfTimes(Tr, T.T.Completed);
  if (!O.TraceOut.empty() && !Tr.writeChrome(O.TraceOut, 50000))
    std::printf("could not write %s\n", O.TraceOut.c_str());
}
