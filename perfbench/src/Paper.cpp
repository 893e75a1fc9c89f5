#include "Paper.h"
#include "Layers.h"

#include "osc.h"

#include <cstdio>
#include <deque>
#include <memory>

using namespace pb;

namespace {

enum class Prog : uint8_t {
  Tak1cc,
  TakCc,
  Threads1cc,
  ThreadsCc,
  Deep,
  Generator,
  Handler,
};
constexpr int NumProgs = 7;

/// One program run: the expression evaluated and what it must produce.
struct ProgRun {
  Prog P = Prog::Tak1cc;
  std::string Call;
  std::string Expect;
  uint64_t Captures = 0; ///< Exact captures the run must make (0: unchecked).
};

// Sizes: each program run takes a few milliseconds, of the same order
// for all seven, so no program's runs dominate the timed phase.
constexpr int TakX = 11, TakY = 9, TakZ = 3;   // 4745 calls
constexpr int TakCcX = 11, TakCcY = 5, TakCcZ = 1; // 4321 calls
constexpr int ThreadsN = 6, ThreadsFib = 16, ThreadsInterval = 20;
constexpr int DeepN = 60000;
constexpr int GenN = 1500;
constexpr int HandlerN = 1500;

constexpr uint64_t TagSalt = 3;

/// tak(x, y, z) and the number of calls it makes.
int64_t tak(int64_t X, int64_t Y, int64_t Z, uint64_t &Calls) {
  ++Calls;
  if (!(Y < X))
    return Z;
  return tak(tak(X - 1, Y, Z, Calls), tak(Y - 1, Z, X, Calls),
             tak(Z - 1, X, Y, Calls), Calls);
}

int64_t fib(int N) { return N < 2 ? N : fib(N - 1) + fib(N - 2); }
uint64_t fibCalls(int N) { return N < 2 ? 1 : 1 + fibCalls(N - 1) + fibCalls(N - 2); }

/// Captures the Figure 5 thread system makes: one for the finish
/// continuation plus one per fuel-triggered yield, simulated exactly
/// (fuel falls by one per fib call and is reset on every switch).
uint64_t threadCaptures() {
  std::deque<uint64_t> Q(ThreadsN, fibCalls(ThreadsFib));
  uint64_t Yields = 0;
  int64_t Fuel = ThreadsInterval;
  uint64_t Cur = Q.front();
  Q.pop_front();
  for (;;) {
    if (Cur == 0) {
      if (Q.empty())
        break;
      Cur = Q.front();
      Q.pop_front();
      Fuel = ThreadsInterval;
      continue;
    }
    --Cur;
    if (--Fuel <= 0) {
      ++Yields;
      Q.push_back(Cur);
      Cur = Q.front();
      Q.pop_front();
      Fuel = ThreadsInterval;
    }
  }
  return Yields + 1;
}

/// The span (and per-layer metric) name of each program's runs.
const char *progMetric(Prog P) {
  switch (P) {
  case Prog::Tak1cc:
    return "core.tak_1cc_ms";
  case Prog::TakCc:
    return "core.tak_cc_ms";
  case Prog::Threads1cc:
    return "core.threads_1cc_ms";
  case Prog::ThreadsCc:
    return "core.threads_cc_ms";
  case Prog::Deep:
    return "core.deep_recursion_ms";
  case Prog::Generator:
    return "control.generator_ms";
  case Prog::Handler:
    return "control.handler_ms";
  }
  return "?";
}

/// Scheme definitions of every program.
const char *paperSource() {
  return R"scheme(
;; Section 4: tak where every call captures and invokes a continuation.
(define (tak-1cc x y z)
  (call/1cc
   (lambda (k)
     (k (if (not (< y x))
            z
            (tak-1cc (tak-1cc (- x 1) y z)
                     (tak-1cc (- y 1) z x)
                     (tak-1cc (- z 1) x y)))))))

(define (tak-cc x y z)
  (call/cc
   (lambda (k)
     (k (if (not (< y x))
            z
            (tak-cc (tak-cc (- x 1) y z)
                    (tak-cc (- y 1) z x)
                    (tak-cc (- z 1) x y)))))))

;; Figure 5: round-robin threads computing fib, switching every
;; `interval` calls; %cap is call/1cc or call/cc.
(define %tq-front '())
(define %tq-back '())
(define (%tq-push! t) (set! %tq-back (cons t %tq-back)))
(define (%tq-empty?) (and (null? %tq-front) (null? %tq-back)))
(define (%tq-pop!)
  (if (null? %tq-front)
      (begin (set! %tq-front (reverse %tq-back)) (set! %tq-back '())))
  (let ((t (car %tq-front)))
    (set! %tq-front (cdr %tq-front))
    t))
(define %cap #f)
(define %fuel 0)
(define %interval 0)
(define %checksum 0)
(define %finish #f)
(define (%run-next) (set! %fuel %interval) ((%tq-pop!)))
(define (%yield)
  (%cap (lambda (k) (%tq-push! (lambda () (k #f))) (%run-next))))
(define (%thread-fib n)
  (set! %fuel (- %fuel 1))
  (if (<= %fuel 0) (%yield) #f)
  (if (< n 2) n (+ (%thread-fib (- n 1)) (%thread-fib (- n 2)))))
(define (%thread-done r)
  (set! %checksum (+ %checksum r))
  (if (%tq-empty?) (%finish %checksum) (%run-next)))
(define (run-threads cap n fib-n interval salt)
  (set! %cap cap)
  (set! %tq-front '())
  (set! %tq-back '())
  (set! %interval interval)
  (set! %checksum salt)
  (cap (lambda (finish)
         (set! %finish finish)
         (let loop ((i 0))
           (if (< i n)
               (begin
                 (%tq-push! (lambda () (%thread-done (%thread-fib fib-n))))
                 (loop (+ i 1)))
               (%run-next))))))

;; Deep non-tail recursion: overflows the stack segment many times over.
(define (deep n acc) (if (= n 0) acc (+ 1 (deep (- n 1) acc))))

;; A generator loop: every yield is a one-shot delimited capture.
(define (gen-sum n salt)
  (let ((g (make-generator
            (lambda (v)
              (let loop ((i 0))
                (if (< i n)
                    (begin (yield (+ salt (remainder (* i 7) 13)))
                           (loop (+ i 1)))
                    'done))))))
    (let loop ((acc 0))
      (let ((x (generator-next g)))
        (if (eof-object? x) acc (loop (+ acc x)))))))

;; An effect-handler loop: every perform cuts a slice to the handler.
(define (handler-sum n salt)
  (with-handler 'acc ((add k a) (k (+ a salt)))
    (let loop ((i 0) (acc 0))
      (if (< i n)
          (loop (+ i 1) (+ acc (perform 'acc 'add i)))
          acc))))
)scheme";
}

/// Run \p Index of the round-robin stream for \p Seed.
ProgRun paperRun(uint64_t Seed, uint64_t Index) {
  ProgRun R;
  R.P = static_cast<Prog>(Index % NumProgs);
  Rng G(mixSeed(Seed, TagSalt, Index));
  int64_t Salt = G.range(0, 999);
  auto S = [](int64_t V) { return std::to_string(V); };
  switch (R.P) {
  case Prog::Tak1cc:
  case Prog::TakCc: {
    bool One = R.P == Prog::Tak1cc;
    int64_t X = One ? TakX : TakCcX, Y = One ? TakY : TakCcY,
            Z = One ? TakZ : TakCcZ;
    // tak is translation invariant: shifting every argument by Salt
    // shifts the result by Salt and leaves the call tree unchanged.
    uint64_t Calls = 0;
    R.Expect = S(tak(X, Y, Z, Calls) + Salt);
    R.Captures = Calls;
    R.Call = std::string(One ? "(tak-1cc " : "(tak-cc ") + S(X + Salt) + " " +
             S(Y + Salt) + " " + S(Z + Salt) + ")";
    break;
  }
  case Prog::Threads1cc:
  case Prog::ThreadsCc: {
    R.Call = std::string("(run-threads ") +
             (R.P == Prog::Threads1cc ? "call/1cc " : "call/cc ") +
             S(ThreadsN) + " " + S(ThreadsFib) + " " + S(ThreadsInterval) +
             " " + S(Salt) + ")";
    R.Expect = S(Salt + ThreadsN * fib(ThreadsFib));
    R.Captures = threadCaptures();
    break;
  }
  case Prog::Deep:
    R.Call = "(deep " + S(DeepN) + " " + S(Salt) + ")";
    R.Expect = S(DeepN + Salt);
    break;
  case Prog::Generator: {
    int64_t Sum = 0;
    for (int64_t I = 0; I != GenN; ++I)
      Sum += Salt + (I * 7) % 13;
    R.Call = "(gen-sum " + S(GenN) + " " + S(Salt) + ")";
    R.Expect = S(Sum);
    break;
  }
  case Prog::Handler: {
    int64_t Sum = 0;
    for (int64_t I = 0; I != HandlerN; ++I)
      Sum += I + Salt;
    R.Call = "(handler-sum " + S(HandlerN) + " " + S(Salt) + ")";
    R.Expect = S(Sum);
    R.Captures = HandlerN;
    break;
  }
  }
  return R;
}

/// Evaluates \p R on \p I, checking its value and counters.  Returns the
/// wall time in seconds, or a negative value on failure.
double runChecked(osc::Interp &I, const ProgRun &R, RunResult &Res) {
  osc::Stats::Snapshot S0 = I.snapshot();
  double T0 = wallSec();
  osc::Interp::Result V = I.eval(R.Call);
  double T = wallSec() - T0;
  osc::Stats::Snapshot D = I.snapshot() - S0;
  std::string Got = V.Ok ? I.valueToString(V.Val) : "error: " + V.Error;
  auto Bad = [&](const std::string &What) {
    Res.fail(R.Call + ": " + What);
    return -1.0;
  };
  if (Got != R.Expect)
    return Bad("got " + Got + ", want " + R.Expect);
  switch (R.P) {
  case Prog::Tak1cc:
  case Prog::Threads1cc:
    // The outermost capture sees an empty stack and short-circuits.
    if (D.OneShotCaptures + D.EmptyCaptures != R.Captures)
      return Bad(std::to_string(D.OneShotCaptures + D.EmptyCaptures) +
                 " one-shot captures, want " + std::to_string(R.Captures));
    if (D.WordsCopied != 0)
      return Bad(std::to_string(D.WordsCopied) + " words copied, want 0");
    break;
  case Prog::TakCc:
  case Prog::ThreadsCc:
    if (D.MultiShotCaptures + D.EmptyCaptures != R.Captures)
      return Bad(std::to_string(D.MultiShotCaptures + D.EmptyCaptures) +
                 " multi-shot captures, want " + std::to_string(R.Captures));
    if (D.WordsCopied == 0)
      return Bad("call/cc run copied no words");
    break;
  case Prog::Deep:
    if (D.Overflows == 0)
      return Bad("no segment overflow");
    break;
  case Prog::Generator:
    if (D.WordsCopied != 0 || D.SliceClonedWords != 0)
      return Bad(std::to_string(D.WordsCopied + D.SliceClonedWords) +
                 " words copied, want 0");
    break;
  case Prog::Handler:
    if (D.Performs != R.Captures)
      return Bad(std::to_string(D.Performs) + " performs, want " +
                 std::to_string(R.Captures));
    if (D.WordsCopied != 0 || D.SliceClonedWords != 0)
      return Bad(std::to_string(D.WordsCopied + D.SliceClonedWords) +
                 " words copied, want 0");
    break;
  }
  return T;
}

std::unique_ptr<osc::Interp> bootPaper(RunResult &Res) {
  auto I = std::make_unique<osc::Interp>();
  auto R = I->eval(paperSource());
  if (!R.Ok)
    Res.fail("paper programs failed to load: " + R.Error);
  return I;
}

struct PaperPhase {
  uint64_t Ops = 0;
  double WallSec = 0, CpuSec = 0;
  std::vector<double> LatMs;
  std::vector<double> ByProg[NumProgs];
  std::vector<WindowMark> Marks;
  osc::Stats::Snapshot D;
};

/// Runs whole rounds of the program stream, starting at \p Next, until
/// \p Seconds have passed.
PaperPhase runPhase(osc::Interp &I, uint64_t Seed, uint64_t &Next,
                    double Seconds, bool Record, Spans *Tr, RunResult &Res) {
  PaperPhase P;
  osc::Stats::Snapshot S0 = I.snapshot();
  double T0 = wallSec(), C0 = threadCpuSec();
  double NextMark = T0 + WindowSec;
  if (Record)
    P.Marks.push_back(WindowMark::now(0, 0));
  while (wallSec() - T0 < Seconds || Next % NumProgs != 0) {
    if (Record && wallSec() >= NextMark) {
      P.Marks.push_back(WindowMark::now(P.Ops, P.LatMs.size()));
      NextMark += WindowSec;
    }
    ProgRun R = paperRun(Seed, Next++);
    double Start = wallSec();
    double T = runChecked(I, R, Res);
    if (T < 0) {
      ++Res.Failed;
      continue;
    }
    ++P.Ops;
    if (Record) {
      P.LatMs.push_back(T * 1e3);
      P.ByProg[static_cast<int>(R.P)].push_back(T * 1e3);
    }
    if (Tr)
      Tr->add(R.P == Prog::Generator || R.P == Prog::Handler ? "control" : "core",
              progMetric(R.P), Start, T);
  }
  if (Record)
    P.Marks.push_back(WindowMark::now(P.Ops, P.LatMs.size()));
  P.WallSec = wallSec() - T0;
  P.CpuSec = threadCpuSec() - C0;
  P.D = I.snapshot() - S0;
  return P;
}

} // namespace

void pb::timePrograms(uint64_t Seed, Spans &Tr, Metrics &M, RunResult &Res) {
  auto I = bootPaper(Res);
  std::vector<double> Ms[NumProgs];
  // Two warm-up rounds, then fifteen measured ones: a round allocates
  // about one GC threshold's worth, so a collection lands in most rounds,
  // and the median needs enough runs per program that the runs it hits
  // stay a minority.
  for (uint64_t Idx = 0; Idx != 17 * NumProgs; ++Idx) {
    ProgRun R = paperRun(Seed, Idx);
    double Start = wallSec();
    double T = runChecked(*I, R, Res);
    if (T < 0 || Idx < 2 * NumProgs)
      continue;
    Ms[static_cast<int>(R.P)].push_back(T * 1e3);
    Tr.add(R.P == Prog::Generator || R.P == Prog::Handler ? "control" : "core",
           progMetric(R.P), Start, T);
  }
  for (int P = 0; P != NumProgs; ++P)
    M[progMetric(static_cast<Prog>(P))] = {median(Ms[P]), "ms"};
}

void pb::runPaper(const RunOptions &O, RunResult &Res) {
  if (!O.Trace) {
    // Set-up: interpreter construction plus loading the programs.
    std::vector<double> Boot;
    for (int K = 0; K != 21; ++K) {
      double T0 = wallSec();
      auto I = bootPaper(Res);
      Boot.push_back(wallSec() - T0);
    }
    auto I = bootPaper(Res);
    uint64_t Next = 0;
    PaperPhase W = runPhase(*I, O.Seed, Next, warmupSec(O.Seconds), false,
                            nullptr, Res);
    PaperPhase P = runPhase(*I, O.Seed, Next, O.Seconds, true, nullptr, Res);
    Res.Attempted = W.Ops + P.Ops + Res.Failed;
    Res.M["setup_s"] = {median(Boot), "s"};
    Windowed Win = windowed(P.Marks, P.LatMs, /*ServerCpu=*/false);
    Res.M["ops_per_s"] = {Win.OpsPerSec, "1/s"};
    Res.M["latency_p50_ms"] = {Win.P50Ms, "ms"};
    Res.M["latency_p99_ms"] = {Win.P99Ms, "ms"};
    Res.M["cpu_us_per_op"] = {Win.CpuUsPerOp, "us"};
    Res.M["peak_rss_mb"] = {peakRssMb(), "MB"};
    printLatencySummary("all", P.LatMs);
    for (int K = 0; K != NumProgs; ++K)
      printLatencySummary(progMetric(static_cast<Prog>(K)), P.ByProg[K]);
    std::printf("timed_ops %llu warmup_ops %llu\n",
                static_cast<unsigned long long>(P.Ops),
                static_cast<unsigned long long>(W.Ops));
    return;
  }

  // Traced run: an untraced phase and a traced phase on fresh
  // interpreters (their difference is the tracing overhead), then the
  // layer timings.
  Spans Tr;
  double Half = O.Seconds / 2;
  uint64_t NextU = 0, NextT = 0;
  auto IU = bootPaper(Res);
  runPhase(*IU, O.Seed, NextU, warmupSec(Half), false, nullptr, Res);
  PaperPhase U = runPhase(*IU, O.Seed, NextU, Half, false, nullptr, Res);
  IU.reset();
  auto IT = bootPaper(Res);
  Tr.enable(true);
  PaperPhase W = runPhase(*IT, O.Seed, NextT, warmupSec(Half), false, nullptr, Res);
  PaperPhase T = runPhase(*IT, O.Seed, NextT, Half, false, &Tr, Res);
  Res.Attempted = U.Ops + W.Ops + T.Ops + Res.Failed;
  double OpsU = double(U.Ops) / U.WallSec, OpsT = double(T.Ops) / T.WallSec;
  std::printf("trace_overhead_pct %.2f (untraced %.1f ops/s, traced %.1f ops/s)\n",
              (OpsU / OpsT - 1) * 100, OpsU, OpsT);

  counterMetrics(T.D, T.Ops, T.CpuSec, Res.M);
  Res.M["serve.shard_share_max"] = {0, "ratio"};
  for (int P = 0; P != NumProgs; ++P) {
    const char *Name = progMetric(static_cast<Prog>(P));
    Res.M[Name] = {median(Tr.durations(Name)) * 1e3, "ms"};
  }
  {
    double T0 = wallSec();
    {
      Spans::Scope S(&Tr, "object", "object.collect");
      IT->collect();
    }
    Res.M["object.gc_pause_ms_end"] = {(wallSec() - T0) * 1e3, "ms"};
    Res.M["object.live_bytes_end"] = {
        double(IT->heap().liveBytesAfterLastGC()), "B"};
  }
  // The reader's input here is the text of each program call.
  std::vector<std::string> Calls;
  for (uint64_t Idx = 0; Idx != 100 * NumProgs; ++Idx)
    Calls.push_back(paperRun(O.Seed, Idx).Call);
  timeReader(Calls, Calls.size(), Tr, Res.M, Res);
  timeTakeReady(1, Tr, Res.M, Res);
  timeParkWake(Tr, Res.M, Res);
  timeCompiler(Tr, Res.M, Res);
  timeRegex(O.Seed, Tr, Res.M, Res);
  printSelfTimes(Tr, T.Ops);
  if (!O.TraceOut.empty() && !Tr.writeChrome(O.TraceOut, 50000))
    std::printf("could not write %s\n", O.TraceOut.c_str());
}
