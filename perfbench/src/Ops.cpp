#include "Ops.h"
#include "Common.h"

#include <algorithm>
#include <stdexcept>

using namespace pb;

const char *pb::verbName(Verb V) {
  switch (V) {
  case Verb::Ping:
    return "PING";
  case Verb::Eval:
    return "EVAL";
  case Verb::Match:
    return "MATCH";
  case Verb::MatchStream:
    return "MATCH/STREAM";
  case Verb::Stream:
    return "STREAM";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// The reference calculator: a reader for integers, symbols and lists, and
// the protocol's safe-eval rules over the tree it builds.
//===----------------------------------------------------------------------===//

namespace {

struct Node {
  enum Kind { Int, Sym, List } K = Int;
  int64_t N = 0;
  std::string S;
  std::vector<Node> Kids;
};

class RefReader {
public:
  explicit RefReader(std::string_view T) : T(T) {}

  /// Reads one datum; false at end of input or on malformed text.
  bool read(Node &Out) {
    skip();
    if (P >= T.size())
      return false;
    if (T[P] == '(') {
      ++P;
      Out.K = Node::List;
      for (;;) {
        skip();
        if (P >= T.size())
          return false;
        if (T[P] == ')') {
          ++P;
          return true;
        }
        Out.Kids.emplace_back();
        if (!read(Out.Kids.back()))
          return false;
      }
    }
    if (T[P] == ')')
      return false;
    size_t B = P;
    while (P < T.size() && T[P] != ' ' && T[P] != '(' && T[P] != ')')
      ++P;
    std::string_view Tok = T.substr(B, P - B);
    size_t D = (Tok[0] == '-' || Tok[0] == '+') ? 1 : 0;
    bool Digits = Tok.size() > D;
    for (size_t I = D; I < Tok.size(); ++I)
      Digits = Digits && Tok[I] >= '0' && Tok[I] <= '9';
    if (Digits) {
      Out.K = Node::Int;
      Out.N = std::stoll(std::string(Tok));
    } else {
      Out.K = Node::Sym;
      Out.S = std::string(Tok);
    }
    return true;
  }

private:
  void skip() {
    while (P < T.size() && T[P] == ' ')
      ++P;
  }
  std::string_view T;
  size_t P = 0;
};

std::optional<int64_t> evalNode(const Node &E) {
  if (E.K == Node::Int)
    return E.N;
  if (E.K == Node::Sym || E.Kids.empty())
    return std::nullopt;
  // The operator position is a name, never evaluated; every argument is.
  std::vector<int64_t> A;
  for (size_t I = 1; I < E.Kids.size(); ++I) {
    auto V = evalNode(E.Kids[I]);
    if (!V)
      return std::nullopt;
    A.push_back(*V);
  }
  if (E.Kids[0].K != Node::Sym)
    return std::nullopt;
  const std::string &Op = E.Kids[0].S;
  auto Chain = [&](auto Rel) -> std::optional<int64_t> {
    if (A.size() < 2)
      return std::nullopt;
    for (size_t I = 1; I < A.size(); ++I)
      if (!Rel(A[I - 1], A[I]))
        return 0;
    return 1;
  };
  if (Op == "+") {
    int64_t S = 0;
    for (int64_t X : A)
      S += X;
    return S;
  }
  if (Op == "*") {
    int64_t S = 1;
    for (int64_t X : A)
      S *= X;
    return S;
  }
  if (Op == "-") {
    if (A.empty())
      return std::nullopt;
    if (A.size() == 1)
      return -A[0];
    int64_t S = A[0];
    for (size_t I = 1; I < A.size(); ++I)
      S -= A[I];
    return S;
  }
  if (Op == "quotient" || Op == "remainder") {
    if (A.size() != 2 || A[1] == 0)
      return std::nullopt;
    return Op == "quotient" ? A[0] / A[1] : A[0] % A[1];
  }
  if (Op == "<")
    return Chain([](int64_t X, int64_t Y) { return X < Y; });
  if (Op == "=")
    return Chain([](int64_t X, int64_t Y) { return X == Y; });
  if (Op == "min" || Op == "max") {
    if (A.empty())
      return std::nullopt;
    int64_t S = A[0];
    for (int64_t X : A)
      S = Op == "min" ? (X < S ? X : S) : (X > S ? X : S);
    return S;
  }
  return std::nullopt;
}

} // namespace

std::optional<int64_t> pb::refEval(std::string_view Text) {
  RefReader R(Text);
  Node E;
  if (!R.read(E))
    return std::nullopt;
  return evalNode(E);
}

//===----------------------------------------------------------------------===//
// Input generation.
//===----------------------------------------------------------------------===//

namespace {

constexpr uint64_t TagRound = 1, TagOp = 2;
/// Generated subexpressions stay within this magnitude, so no fixnum
/// arithmetic on either side comes near overflow.
constexpr int64_t ValueBound = int64_t(1) << 40;

int64_t abs64(int64_t X) { return X < 0 ? -X : X; }

/// Appends a well-formed expression of about \p Budget nodes whose value
/// stays within ValueBound and that never divides by zero; returns its
/// value (tracked only to keep the bound — expected replies come from
/// refEval over the text).
int64_t genExpr(Rng &R, std::string &Out, int Budget) {
  if (Budget <= 1) {
    int64_t V = R.range(-99, 999);
    Out += std::to_string(V);
    return V;
  }
  static const char *Ops[] = {"+", "+", "-", "*", "min", "max",
                              "<", "=", "quotient", "remainder"};
  const char *Op = Ops[R.range(0, 9)];
  std::string Op0 = Op;
  int Arity = (Op0 == "quotient" || Op0 == "remainder")
                  ? 2
                  : static_cast<int>(R.range(Op0 == "-" ? 1 : 2, 4));
  if (Arity > Budget - 1)
    Arity = Budget - 1 < 1 ? 1 : Budget - 1;
  if (Arity < 2 && Op0 != "-")
    Op0 = "-";
  int Left = Budget - 1;
  std::string Kids;
  std::vector<int64_t> A;
  for (int I = 0; I != Arity; ++I) {
    int Share = I + 1 == Arity ? Left : static_cast<int>(R.range(1, Left - (Arity - I - 1)));
    Left -= Share;
    Kids += ' ';
    A.push_back(genExpr(R, Kids, Share));
  }
  int64_t V = 0;
  if (Op0 == "+" || Op0 == "-" || Op0 == "*") {
    V = Op0 == "*" ? 1 : 0;
    for (size_t I = 0; I != A.size(); ++I) {
      if (Op0 == "*")
        V = abs64(V) > ValueBound || abs64(A[I]) > ValueBound / (abs64(V) + 1)
                ? ValueBound + 1
                : V * A[I];
      else if (Op0 == "-" && A.size() == 1)
        V = -A[I];
      else
        V = (Op0 == "-" && I) ? V - A[I] : V + A[I];
    }
  } else if (Op0 == "min" || Op0 == "max") {
    V = A[0];
    for (int64_t X : A)
      V = Op0 == "min" ? std::min(V, X) : std::max(V, X);
  } else if (Op0 == "<" || Op0 == "=") {
    V = 1;
    for (size_t I = 1; I != A.size(); ++I)
      if (Op0 == "<" ? !(A[I - 1] < A[I]) : A[I - 1] != A[I])
        V = 0;
  } else {
    if (A[1] == 0) {
      Op0 = "+";
      V = A[0];
    } else {
      V = Op0 == "quotient" ? A[0] / A[1] : A[0] % A[1];
    }
  }
  if (abs64(V) > ValueBound) {
    int64_t L = R.range(0, 99);
    Out += std::to_string(L);
    return L;
  }
  Out += '(';
  Out += Op0;
  Out += Kids;
  Out += ')';
  return V;
}

/// A well-formed datum the calculator must answer ERR to.
std::string genErrExpr(Rng &R) {
  std::string Inner;
  genExpr(R, Inner, static_cast<int>(R.range(1, 4)));
  switch (R.range(0, 3)) {
  case 0:
    return "(quotient " + Inner + " 0)";
  case 1:
    return "(+ 1 (remainder " + Inner + " (- 3 3)))";
  case 2:
    return "(pow " + Inner + " 2)";
  default:
    return "(+ " + Inner + " x)";
  }
}

std::string expectFor(const std::string &Text) {
  auto V = refEval(Text);
  return V ? std::to_string(*V) : std::string("ERR");
}

/// Filler for regex texts: no upper-case letters, so no pattern below can
/// match anywhere in it.
char fillerChar(Rng &R) {
  static const char Alpha[] = "abcdefghijklmnopqrstuvwxyz0123456789 ";
  return Alpha[R.range(0, sizeof(Alpha) - 2)];
}

/// A pattern and a string it matches exactly (leftmost-longest, with no
/// longer extension into filler).
void genPlant(Rng &R, std::string &Pat, std::string &Plant) {
  static const char *Pats[] = {"Q[A-F]+Z", "(FOO|BAR)+X", "K[A-Z]{3}V",
                               "W[0-9]+V"};
  int T = static_cast<int>(R.range(0, 3));
  Pat = Pats[T];
  switch (T) {
  case 0:
    Plant = "Q";
    for (int I = 0, N = static_cast<int>(R.range(1, 8)); I != N; ++I)
      Plant += static_cast<char>('A' + R.range(0, 5));
    Plant += "Z";
    break;
  case 1:
    Plant.clear();
    for (int I = 0, N = static_cast<int>(R.range(1, 4)); I != N; ++I)
      Plant += R.chance(1, 2) ? "FOO" : "BAR";
    Plant += "X";
    break;
  case 2:
    Plant = "K";
    for (int I = 0; I != 3; ++I)
      Plant += static_cast<char>('A' + R.range(0, 25));
    Plant += "V";
    break;
  default:
    Plant = "W";
    for (int I = 0, N = static_cast<int>(R.range(1, 6)); I != N; ++I)
      Plant += static_cast<char>('0' + R.range(0, 9));
    Plant += "V";
    break;
  }
}

/// Text of \p Len bytes with \p Plant at a seeded offset (or nowhere, when
/// \p Plant is empty); \p Expect gets the reply the match must produce.
std::string genText(Rng &R, size_t Len, const std::string &Plant,
                    std::string &Expect) {
  std::string T;
  T.reserve(Len);
  for (size_t I = 0; I != Len; ++I)
    T += fillerChar(R);
  if (Plant.empty()) {
    Expect = "NOMATCH";
    return T;
  }
  size_t At = static_cast<size_t>(R.range(0, static_cast<int64_t>(Len - Plant.size())));
  T.replace(At, Plant.size(), Plant);
  Expect = "FOUND " + std::to_string(At) + " " +
           std::to_string(At + Plant.size());
  return T;
}

} // namespace

OpStream::OpStream(const std::string &Workload, uint64_t Seed) : Seed(Seed) {
  auto Add = [this](Verb V, int N) { Round.insert(Round.end(), N, V); };
  if (Workload == "rpc_small" || Workload == "conn_churn") {
    Add(Verb::Ping, 8);
    Add(Verb::Eval, 8);
  } else if (Workload == "rpc_verbs") {
    Add(Verb::Eval, 7);
    Add(Verb::Match, 8);
    Add(Verb::MatchStream, 4);
    Add(Verb::Stream, 1);
  } else {
    throw std::runtime_error("no request stream for workload " + Workload);
  }
  Large = Workload == "rpc_verbs";
}

Verb OpStream::verbOf(uint64_t Index) const {
  uint64_t N = Round.size();
  std::vector<Verb> Order = Round;
  Rng R(mixSeed(Seed, TagRound, Index / N));
  for (uint64_t I = N - 1; I > 0; --I)
    std::swap(Order[I], Order[R.next() % (I + 1)]);
  return Order[Index % N];
}

Exchange OpStream::make(uint64_t Index) const {
  Exchange E;
  E.V = verbOf(Index);
  Rng R(mixSeed(Seed, TagOp, Index));
  switch (E.V) {
  case Verb::Ping:
    E.Line = "PING";
    E.Expect = {"PONG"};
    break;
  case Verb::Eval: {
    if (R.chance(1, 64)) {
      E.Payload = "";
    } else if (R.chance(1, 8)) {
      E.Payload = genErrExpr(R);
    } else {
      int Budget = Large ? static_cast<int>(R.range(150, 300))
                         : static_cast<int>(R.range(3, 9));
      genExpr(R, E.Payload, Budget);
    }
    E.Line = "EVAL " + E.Payload;
    E.Expect = {expectFor(E.Payload)};
    break;
  }
  case Verb::Stream: {
    int Parts = static_cast<int>(R.range(24, 32));
    E.Payload = "(";
    for (int I = 0; I != Parts; ++I) {
      std::string Part;
      if (R.chance(1, 8))
        Part = genErrExpr(R);
      else
        genExpr(R, Part, static_cast<int>(R.range(1, 7)));
      E.Payload += (I ? " " : "") + Part;
      E.Expect.push_back("PART " + expectFor(Part));
    }
    E.Payload += ")";
    E.Expect.push_back("DONE");
    E.Line = "STREAM " + E.Payload;
    break;
  }
  case Verb::Match: {
    std::string Pat, Plant, Want;
    genPlant(R, Pat, Plant);
    if (R.chance(1, 8))
      Plant.clear();
    std::string Text = genText(R, static_cast<size_t>(R.range(2048, 4096)), Plant, Want);
    E.Line = "MATCH " + Pat + " " + Text;
    E.Expect = {Want};
    break;
  }
  case Verb::MatchStream: {
    std::string Pat, Plant, Want;
    genPlant(R, Pat, Plant);
    if (R.chance(1, 8))
      Plant.clear();
    int NChunks = static_cast<int>(R.range(4, 8));
    std::vector<size_t> Sizes;
    size_t Total = 0;
    for (int I = 0; I != NChunks; ++I) {
      Sizes.push_back(static_cast<size_t>(R.range(256, 768)));
      Total += Sizes.back();
    }
    std::string Text = genText(R, Total, Plant, Want);
    size_t At = 0;
    for (size_t S : Sizes) {
      E.Chunks.push_back(Text.substr(At, S));
      At += S;
    }
    E.Line = "MATCH/STREAM " + Pat;
    E.Expect = {Want};
    break;
  }
  }
  return E;
}
