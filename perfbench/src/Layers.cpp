#include "Layers.h"
#include "Ops.h"

#include "io/Reactor.h"
#include "osc.h"
#include "regex/Regex.h"
#include "sexp/Reader.h"

#include <cstdio>
#include <unistd.h>

using namespace pb;

void pb::counterMetrics(const osc::Stats::Snapshot &D, uint64_t Ops,
                        double CpuSec, Metrics &M) {
  auto Per = [Ops](uint64_t V) { return Ops ? double(V) / double(Ops) : 0; };
  auto Ratio = [](uint64_t A, uint64_t B) {
    return A + B ? double(A) / double(A + B) : 0;
  };
  M["io.parks_per_op"] = {Per(D.IoParks), "count"};
  M["io.wakes_per_op"] = {Per(D.IoWakes), "count"};
  M["io.bytes_read_per_op"] = {Per(D.BytesRead), "B"};
  M["io.bytes_written_per_op"] = {Per(D.BytesWritten), "B"};
  M["io.accepts_per_batch"] = {
      D.AcceptBatches ? double(D.AcceptedConnections) / double(D.AcceptBatches) : 0,
      "count"};
  M["sched.switches_per_op"] = {Per(D.ContextSwitches), "count"};
  M["sched.threads_spawned_per_op"] = {Per(D.ThreadsSpawned), "count"};
  M["sched.channel_blocks_per_op"] = {Per(D.ChannelBlocks), "count"};
  M["core.words_copied_per_op"] = {Per(D.WordsCopied), "count"};
  M["core.segments_allocated_per_op"] = {Per(D.SegmentsAllocated), "count"};
  M["core.segment_cache_hit_ratio"] = {
      Ratio(D.SegmentCacheHits, D.SegmentsAllocated), "ratio"};
  M["core.one_shot_invokes_per_op"] = {Per(D.OneShotInvokes), "count"};
  M["core.multi_shot_invokes_per_op"] = {Per(D.MultiShotInvokes), "count"};
  M["core.overflows_per_op"] = {Per(D.Overflows), "count"};
  M["control.slice_captures_per_op"] = {Per(D.SliceCaptures), "count"};
  M["control.slice_cloned_words_per_op"] = {Per(D.SliceClonedWords), "count"};
  M["vm.instructions_per_op"] = {Per(D.Instructions), "count"};
  M["vm.cache_hit_ratio"] = {Ratio(D.CacheHits, D.CacheMisses), "ratio"};
  M["vm.instructions_per_cpu_us"] = {
      CpuSec > 0 ? double(D.Instructions) / (CpuSec * 1e6) : 0, "1/us"};
  M["regex.steps_per_op"] = {Per(D.RegexSteps), "count"};
  M["regex.bytes_scanned_per_op"] = {Per(D.RegexBytesScanned), "B"};
  M["object.bytes_allocated_per_op"] = {Per(D.BytesAllocated), "B"};
  M["object.gc_per_kop"] = {Per(D.GcCount) * 1000, "count"};
}

void pb::timeTakeReady(int Ports, Spans &Tr, Metrics &M, RunResult &Res) {
  osc::Reactor R;
  std::vector<int> Peers;
  std::string Err;
  for (int I = 0; I != Ports; ++I) {
    int A = -1, B = -1;
    if (!osc::openSocketPairFds(A, B, Err)) {
      Res.fail("socketpair: " + Err);
      break;
    }
    uint32_t Id = R.addPort(A, osc::Port::Kind::Stream);
    R.park(static_cast<uint32_t>(I), Id, osc::IoOp::ReadLine);
    Peers.push_back(B);
  }
  // One port holds an unread line, so each call polls every port and
  // hands exactly one waiter back; it is re-parked for the next call.
  if (!Peers.empty() && ::write(Peers[0], "x\n", 2) != 2)
    Res.fail("takeReady: could not ready a port");
  for (int K = 0; K != 20000 && !Peers.empty(); ++K) {
    std::vector<osc::PendingIo> Ready;
    {
      Spans::Scope S(&Tr, "io", "io.take_ready");
      Ready = R.takeReady(0);
    }
    if (Ready.size() != 1) {
      Res.fail("takeReady returned " + std::to_string(Ready.size()) +
               " waiters, want 1");
      break;
    }
    R.repark(Ready[0]);
  }
  R.clearWaiters();
  for (int B : Peers)
    ::close(B);
  M["io.take_ready_us"] = {median(Tr.durations("io.take_ready")) * 1e6, "us"};
}

void pb::timeParkWake(Spans &Tr, Metrics &M, RunResult &Res) {
  // Two green threads hand a value back and forth over two channels: each
  // round trip parks (and later wakes) each thread once in channel-recv.
  constexpr int N = 20000;
  osc::Interp I;
  auto R = I.eval(R"scheme(
(define (ping-pong n)
  (let ((a (make-channel 1)) (b (make-channel 1)))
    (spawn (lambda ()
             (let loop ((i 0))
               (if (< i n)
                   (begin (channel-send! a i) (channel-recv b) (loop (+ i 1)))))))
    (spawn (lambda ()
             (let loop ((i 0))
               (if (< i n)
                   (begin (channel-send! b (channel-recv a)) (loop (+ i 1)))))))
    (scheduler-run)))
)scheme");
  if (!R.Ok) {
    Res.fail("ping-pong load: " + R.Error);
    return;
  }
  std::vector<double> Per;
  for (int K = 0; K != 3; ++K) {
    osc::Stats::Snapshot S0 = I.snapshot();
    double T0 = wallSec();
    {
      Spans::Scope S(&Tr, "sched", "sched.ping_pong");
      R = I.eval("(ping-pong " + std::to_string(N) + ")");
    }
    double T = wallSec() - T0;
    uint64_t Blocks = (I.snapshot() - S0).ChannelBlocks;
    if (!R.Ok || Blocks < 2 * uint64_t(N) - 2) {
      Res.fail("ping-pong: " + (R.Ok ? std::to_string(Blocks) + " channel blocks"
                                     : R.Error));
      return;
    }
    Per.push_back(T / double(Blocks) * 1e6);
  }
  M["sched.park_wake_us"] = {median(Per), "us"};
}

void pb::timeCompiler(Spans &Tr, Metrics &M, RunResult &Res) {
  for (int K = 0; K != 5; ++K) {
    Spans::Scope S(&Tr, "compiler", "compiler.interp_boot");
    osc::Interp I;
  }
  for (int K = 0; K != 5; ++K) {
    osc::Interp I;
    // The globals the protocol core reads at load time.
    I.defineGlobal("*max-inflight*", osc::Value::fixnum(64));
    I.defineGlobal("*max-conns*", osc::Value::fixnum(0));
    I.defineGlobal("*conn-deadline-ms*", osc::Value::fixnum(0));
    osc::Interp::Result R;
    {
      Spans::Scope S(&Tr, "compiler", "compiler.protocol_load");
      R = I.eval(osc::Server::protocolSource());
    }
    if (!R.Ok)
      Res.fail("protocol load: " + R.Error);
  }
  M["compiler.interp_boot_ms"] = {
      median(Tr.durations("compiler.interp_boot")) * 1e3, "ms"};
  M["compiler.protocol_load_ms"] = {
      median(Tr.durations("compiler.protocol_load")) * 1e3, "ms"};
}

void pb::timeReader(const std::vector<std::string> &Payloads, uint64_t Ops,
                    Spans &Tr, Metrics &M, RunResult &Res) {
  osc::Interp I;
  double Total = 0;
  for (const std::string &P : Payloads) {
    double T0 = wallSec();
    osc::ReadResult R;
    {
      Spans::Scope S(&Tr, "sexp", "sexp.read");
      osc::Reader Rd(I.heap(), P);
      R = Rd.read();
    }
    Total += wallSec() - T0;
    if (!R.Ok && !R.AtEof)
      Res.fail("reader rejected a payload: " + R.Error);
  }
  M["sexp.read_us_per_op"] = {Ops ? Total / double(Ops) * 1e6 : 0, "us"};
}

void pb::timeRegex(uint64_t Seed, Spans &Tr, Metrics &M, RunResult &Res) {
  OpStream Ops("rpc_verbs", Seed);
  double Total = 0;
  uint64_t Bytes = 0;
  int Seen = 0;
  for (uint64_t Idx = 0; Seen != 200; ++Idx) {
    if (Ops.verbOf(Idx) != Verb::Match)
      continue;
    ++Seen;
    Exchange E = Ops.make(Idx);
    // "MATCH <pattern> <text>"; the generated patterns hold no spaces.
    size_t Sp = E.Line.find(' ', 6);
    std::string_view Pat(E.Line.data() + 6, Sp - 6);
    std::string_view Text(E.Line.data() + Sp + 1, E.Line.size() - Sp - 1);
    double T0 = wallSec();
    osc::regex::Machine Mc;
    {
      Spans::Scope S(&Tr, "regex", "regex.search");
      osc::regex::ProgramBuffer Buf;
      std::string Err;
      if (!osc::regex::compile(Pat, Buf, Err)) {
        Res.fail("regex compile " + std::string(Pat) + ": " + Err);
        return;
      }
      std::vector<osc::RegexThread> Threads(Buf.size());
      Mc.Prog = Buf.data();
      Mc.NInstrs = Buf.size();
      Mc.Threads = Threads.data();
      osc::regex::init(Mc);
      osc::regex::feed(Mc, Text);
      osc::regex::finish(Mc);
    }
    Total += wallSec() - T0;
    Bytes += Text.size();
    std::string Got = Mc.Decided == osc::regex::Matched
                          ? "FOUND " + std::to_string(Mc.BestStart) + " " +
                                std::to_string(Mc.BestEnd)
                          : "NOMATCH";
    if (Got != E.Expect[0])
      Res.fail("regex search op " + std::to_string(Idx) + ": got " + Got +
               ", want " + E.Expect[0]);
  }
  M["regex.search_ns_per_byte"] = {Bytes ? Total / double(Bytes) * 1e9 : 0,
                                   "ns/B"};
}

void pb::printSelfTimes(const Spans &Tr, uint64_t Ops) {
  for (const auto &[Layer, Sec] : Tr.selfTimeByLayer())
    std::printf("self_time_us_per_op %s %.4f\n", Layer.c_str(),
                Ops ? Sec / double(Ops) * 1e6 : 0.0);
}
