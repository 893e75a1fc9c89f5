#include "Spans.h"
#include "Common.h"

#include <cstdio>

using namespace pb;

Spans::Scope::Scope(Spans *S, const char *Layer, const char *Name) : S(S) {
  if (!S || !S->Enabled)
    return;
  Idx = static_cast<int32_t>(S->All.size());
  int32_t Parent = S->Open.empty() ? -1 : S->Open.back();
  S->All.push_back({Layer, Name, wallSec(), 0, Parent});
  S->Open.push_back(Idx);
}

Spans::Scope::~Scope() {
  if (Idx < 0)
    return;
  Span &Sp = S->All[static_cast<size_t>(Idx)];
  Sp.Dur = wallSec() - Sp.Start;
  S->Open.pop_back();
}

void Spans::add(const char *Layer, const char *Name, double Start,
                double Dur) {
  if (!Enabled)
    return;
  int32_t Parent = Open.empty() ? -1 : Open.back();
  All.push_back({Layer, Name, Start, Dur, Parent});
}

std::vector<double> Spans::durations(const std::string &Name) const {
  std::vector<double> Out;
  for (const Span &S : All)
    if (Name == S.Name)
      Out.push_back(S.Dur);
  return Out;
}

std::map<std::string, double> Spans::selfTimeByLayer() const {
  std::vector<double> Self(All.size());
  for (size_t I = 0; I != All.size(); ++I)
    Self[I] = All[I].Dur;
  for (const Span &S : All)
    if (S.Parent >= 0)
      Self[static_cast<size_t>(S.Parent)] -= S.Dur;
  std::map<std::string, double> Out;
  for (size_t I = 0; I != All.size(); ++I)
    Out[All[I].Layer] += Self[I];
  return Out;
}

bool Spans::writeChrome(const std::string &Path, size_t MaxSpans) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  double T0 = All.empty() ? 0 : All.front().Start;
  std::fputs("{\"traceEvents\":[\n", F);
  size_t N = All.size() < MaxSpans ? All.size() : MaxSpans;
  for (size_t I = 0; I != N; ++I) {
    const Span &S = All[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}\n",
                 I ? "," : "", S.Name, S.Layer, (S.Start - T0) * 1e6,
                 S.Dur * 1e6, I, S.Parent);
  }
  std::fprintf(F, "],\"otherData\":{\"spans_recorded\":%zu,"
                  "\"spans_written\":%zu}}\n",
               All.size(), N);
  return std::fclose(F) == 0;
}
