#include "Common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

#include <sched.h>
#include <sys/resource.h>

using namespace pb;

double pb::wallSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

static double clockSec(clockid_t Id) {
  timespec T{};
  clock_gettime(Id, &T);
  return double(T.tv_sec) + double(T.tv_nsec) * 1e-9;
}

double pb::threadCpuSec() { return clockSec(CLOCK_THREAD_CPUTIME_ID); }
double pb::processCpuSec() { return clockSec(CLOCK_PROCESS_CPUTIME_ID); }

double pb::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0;
}

void pb::scheduleOnOneCpu() {
  sched_param Param{};
  sched_setscheduler(0, SCHED_BATCH, &Param);
  cpu_set_t Allowed;
  CPU_ZERO(&Allowed);
  if (sched_getaffinity(0, sizeof Allowed, &Allowed) != 0)
    return;
  for (int Cpu = CPU_SETSIZE - 1; Cpu >= 0; --Cpu) {
    if (!CPU_ISSET(Cpu, &Allowed))
      continue;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpu, &One);
    sched_setaffinity(0, sizeof One, &One);
    return;
  }
}

double pb::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  if (Lo + 1 >= V.size())
    return V.back();
  return V[Lo] + (V[Lo + 1] - V[Lo]) * (Pos - double(Lo));
}

WindowMark WindowMark::now(uint64_t Ops, size_t NLat) {
  return {wallSec(), processCpuSec(), threadCpuSec(), Ops, NLat};
}

Windowed pb::windowed(const std::vector<WindowMark> &Marks,
                      const std::vector<double> &LatMs, bool ServerCpu) {
  std::vector<double> Rate, P50, P99, Cpu;
  size_t Windows = 0;
  for (size_t I = 1; I < Marks.size(); ++I) {
    const WindowMark &A = Marks[I - 1], &B = Marks[I];
    double Sec = B.T - A.T;
    uint64_t Ops = B.Ops - A.Ops;
    if (Sec < WindowSec / 2 || Ops == 0)
      continue;
    double CpuSec = ServerCpu ? (B.ProcCpu - A.ProcCpu) - (B.OwnCpu - A.OwnCpu)
                              : B.OwnCpu - A.OwnCpu;
    ++Windows;
    Rate.push_back(double(Ops) / Sec);
    Cpu.push_back(CpuSec / double(Ops) * 1e6);
    std::vector<double> L(LatMs.begin() + A.NLat, LatMs.begin() + B.NLat);
    if (!L.empty())
      P50.push_back(median(L));
    if (L.size() >= MinP99Samples)
      P99.push_back(quantile(L, 0.99));
  }
  return {median(Rate), median(P50),
          P99.size() * 2 > Windows ? median(P99) : quantile(LatMs, 0.99),
          median(Cpu)};
}

uint64_t pb::mixSeed(uint64_t Seed, uint64_t Tag, uint64_t Index) {
  Rng R(Seed * 0x100000001b3ULL ^ (Tag << 56) ^ Index);
  R.next();
  return R.next();
}

void pb::printLatencySummary(const char *Label,
                             const std::vector<double> &LatMs) {
  size_t N = LatMs.size();
  if (N < 40) {
    std::printf("latency %s n=%zu p50=%.4f ms\n", Label, N, quantile(LatMs, 0.5));
    return;
  }
  // The deepest percentile with at least ten samples beyond it.
  double Q = 0.99;
  const char *Name = "p99";
  static const struct {
    double Q;
    const char *Name;
  } Deeper[] = {{0.999, "p99.9"}, {0.9999, "p99.99"}, {0.99999, "p99.999"}};
  for (const auto &D : Deeper)
    if (double(N) * (1 - D.Q) >= 10) {
      Q = D.Q;
      Name = D.Name;
    }
  double Beyond = std::floor(double(N) * (1 - Q));
  std::printf("latency %s n=%zu p50=%.4f p90=%.4f p99=%.4f max=%.4f ms; deepest "
              "%s=%.4f ms (%.0f samples beyond)\n",
              Label, N, quantile(LatMs, 0.5), quantile(LatMs, 0.9),
              quantile(LatMs, 0.99),
              *std::max_element(LatMs.begin(), LatMs.end()), Name,
              quantile(LatMs, Q), Beyond);
}
