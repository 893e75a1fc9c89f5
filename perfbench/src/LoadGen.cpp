#include "LoadGen.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace pb;

struct LoadGen::Conn {
  int Fd = -1;
  bool Connecting = false; ///< Churn: non-blocking connect in progress.
  bool Busy = false;       ///< An exchange is outstanding.
  bool WantOut = false;    ///< EPOLLOUT armed.
  uint64_t Index = 0;
  Exchange Ex;
  size_t Step = 0;     ///< STREAM: expected lines matched so far.
  size_t NextChunk = 0; ///< MATCH/STREAM: next chunk to send.
  bool EndSent = false;
  double Start = 0;
  std::string In, Out;
};

namespace {

/// How long the generator waits without any event before it declares the
/// server stalled and fails the outstanding exchanges.
constexpr double StallSec = 10;

sockaddr_in loopback(uint16_t Port) {
  sockaddr_in A{};
  A.sin_family = AF_INET;
  A.sin_port = htons(Port);
  A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return A;
}

void noDelay(int Fd) {
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
}

} // namespace

LoadGen::LoadGen(const OpStream &Ops, uint16_t Port, int Conns, bool Churn,
                 RunResult &Res)
    : Ops(Ops), Port(Port), NConns(Conns), Churn(Churn), Res(Res) {
  Ep = ::epoll_create1(EPOLL_CLOEXEC);
  for (int I = 0; I != NConns; ++I)
    Cs.push_back(std::make_unique<Conn>());
}

LoadGen::~LoadGen() {
  closeAll();
  if (Ep >= 0)
    ::close(Ep);
}

void LoadGen::closeAll() {
  for (auto &C : Cs)
    dropConn(*C);
}

void LoadGen::dropConn(Conn &C) {
  if (C.Fd >= 0)
    ::close(C.Fd);
  C.Fd = -1;
  C.Connecting = C.WantOut = false;
  C.In.clear();
  C.Out.clear();
}

bool LoadGen::start() {
  if (Ep < 0) {
    Res.fail("epoll_create1 failed");
    return false;
  }
  if (Churn)
    return true;
  for (auto &C : Cs) {
    int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in A = loopback(Port);
    if (Fd < 0 || ::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof A) != 0) {
      Res.fail(std::string("connect: ") + std::strerror(errno));
      if (Fd >= 0)
        ::close(Fd);
      return false;
    }
    noDelay(Fd);
    ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK);
    C->Fd = Fd;
    epoll_event E{};
    E.events = EPOLLIN;
    E.data.ptr = C.get();
    ::epoll_ctl(Ep, EPOLL_CTL_ADD, Fd, &E);
  }
  return true;
}

bool LoadGen::sendRaw(Conn &C, const std::string &S) {
  C.Out += S;
  while (!C.Out.empty()) {
    ssize_t N = ::send(C.Fd, C.Out.data(), C.Out.size(), MSG_NOSIGNAL);
    if (N > 0) {
      C.Out.erase(0, static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && errno == EAGAIN)
      break;
    return false;
  }
  bool Want = !C.Out.empty();
  if (Want != C.WantOut) {
    epoll_event E{};
    E.events = EPOLLIN | (Want ? uint32_t(EPOLLOUT) : 0u);
    E.data.ptr = &C;
    ::epoll_ctl(Ep, EPOLL_CTL_MOD, C.Fd, &E);
    C.WantOut = Want;
  }
  return true;
}

static std::string firstSend(const Exchange &Ex) {
  std::string S = Ex.Line + "\n";
  // MATCH/STREAM's first chunk rides with the verb line: the server
  // answers nothing to the verb itself, only to each chunk.
  if (Ex.V == Verb::MatchStream)
    S += Ex.Chunks[0] + "\n";
  return S;
}

bool LoadGen::openChurn(Conn &C) {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return false;
  noDelay(Fd);
  C.Fd = Fd;
  // Each new connection leaves a TIME_WAIT socket behind on this side.
  // Spreading connections over 250 loopback source addresses, with the
  // port picked at connect time, keeps connect() from searching one
  // address's crowded ephemeral port range, where it would become the
  // generator's own bottleneck.
  int One = 1;
  ::setsockopt(Fd, IPPROTO_IP, IP_BIND_ADDRESS_NO_PORT, &One, sizeof One);
  sockaddr_in Src{};
  Src.sin_family = AF_INET;
  Src.sin_addr.s_addr = htonl(INADDR_LOOPBACK + 1 + (C.Index % 250));
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Src), sizeof Src) != 0)
    return false;
  sockaddr_in A = loopback(Port);
  int R = ::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof A);
  if (R != 0 && errno != EINPROGRESS)
    return false;
  C.Connecting = R != 0;
  epoll_event E{};
  E.events = C.Connecting ? EPOLLOUT : EPOLLIN;
  E.data.ptr = &C;
  C.WantOut = C.Connecting;
  ::epoll_ctl(Ep, EPOLL_CTL_ADD, Fd, &E);
  return C.Connecting || sendRaw(C, firstSend(C.Ex));
}

bool LoadGen::issue(Conn &C, double Now) {
  C.Index = Next++;
  C.Ex = Ops.make(C.Index);
  C.Step = 0;
  C.NextChunk = C.Ex.V == Verb::MatchStream ? 1 : 0;
  C.EndSent = false;
  C.Busy = true;
  ++Active;
  C.Start = Now;
  if (Churn)
    return openChurn(C);
  return sendRaw(C, firstSend(C.Ex));
}

void LoadGen::finish(Conn &C, PhaseStats &P, bool Record, Spans *Tr,
                     bool Ok) {
  double End = wallSec();
  C.Busy = false;
  --Active;
  if (Ok) {
    ++P.Completed;
    if (Record) {
      P.LatMs.push_back((End - C.Start) * 1e3);
      P.LatVerb.push_back(static_cast<uint8_t>(C.Ex.V));
    }
    if (Tr)
      Tr->add("serve", verbName(C.Ex.V), C.Start, End - C.Start);
  } else {
    ++P.Failed;
  }
  // A failed keep-alive connection is retired: its reply stream can no
  // longer be lined up with requests.
  if (Churn || !Ok)
    dropConn(C);
}

void LoadGen::onWritable(Conn &C, PhaseStats &P) {
  if (C.Connecting) {
    int E = 0;
    socklen_t L = sizeof E;
    ::getsockopt(C.Fd, SOL_SOCKET, SO_ERROR, &E, &L);
    if (E != 0) {
      finish(C, P, false, nullptr, false);
      return;
    }
    C.Connecting = false;
    C.WantOut = true; // Re-armed below to the sendRaw-decided set.
    if (!sendRaw(C, firstSend(C.Ex)))
      finish(C, P, false, nullptr, false);
    return;
  }
  if (!sendRaw(C, ""))
    finish(C, P, false, nullptr, false);
}

void LoadGen::onReadable(Conn &C, PhaseStats &P, bool Record, Spans *Tr) {
  char Buf[65536];
  for (;;) {
    ssize_t N = ::recv(C.Fd, Buf, sizeof Buf, 0);
    if (N > 0) {
      C.In.append(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && errno == EAGAIN)
      break;
    // EOF or error: whatever is outstanding has failed.
    if (C.Busy)
      finish(C, P, false, nullptr, false);
    else
      dropConn(C);
    return;
  }
  size_t Pos = 0;
  while (C.Busy) {
    size_t Nl = C.In.find('\n', Pos);
    if (Nl == std::string::npos)
      break;
    std::string Line = C.In.substr(Pos, Nl - Pos);
    Pos = Nl + 1;
    const Exchange &Ex = C.Ex;
    auto Wrong = [&](const std::string &Want) {
      Res.fail(std::string(verbName(Ex.V)) + " op " +
               std::to_string(C.Index) + ": got '" + Line.substr(0, 80) +
               "', want '" + Want.substr(0, 80) + "'");
      finish(C, P, Record, Tr, false);
    };
    switch (Ex.V) {
    case Verb::Stream:
      if (Line != Ex.Expect[C.Step]) {
        Wrong(Ex.Expect[C.Step]);
      } else if (++C.Step == Ex.Expect.size()) {
        finish(C, P, Record, Tr, true);
      }
      break;
    case Verb::MatchStream:
      if (Line == "AGAIN") {
        if (C.NextChunk < Ex.Chunks.size()) {
          if (!sendRaw(C, Ex.Chunks[C.NextChunk++] + "\n"))
            finish(C, P, Record, Tr, false);
        } else if (!C.EndSent) {
          C.EndSent = true;
          if (!sendRaw(C, "END\n"))
            finish(C, P, Record, Tr, false);
        } else {
          Wrong(Ex.Expect[0]);
        }
      } else if (Line != Ex.Expect[0]) {
        Wrong(Ex.Expect[0]);
      } else {
        finish(C, P, Record, Tr, true);
      }
      break;
    default:
      if (Line != Ex.Expect[0])
        Wrong(Ex.Expect[0]);
      else
        finish(C, P, Record, Tr, true);
      break;
    }
  }
  if (C.Fd >= 0)
    C.In.erase(0, Pos);
  if (C.Fd >= 0 && !C.Busy && !C.In.empty()) {
    Res.fail("unexpected reply bytes after op " + std::to_string(C.Index));
    dropConn(C);
  }
}

PhaseStats LoadGen::run(double Seconds, bool Record, Spans *Tr) {
  return loop(Seconds, 0, Record, Tr);
}

PhaseStats LoadGen::runCount(uint64_t Count) {
  return loop(0, Count, false, nullptr);
}

PhaseStats LoadGen::loop(double Seconds, uint64_t Count, bool Record,
                         Spans *Tr) {
  PhaseStats P;
  double T0 = wallSec(), C0 = threadCpuSec();
  double Deadline = T0 + Seconds;
  // Count mode issues up to (excluding) op StopAt.
  uint64_t StopAt = Count ? Next + Count : 0;
  uint64_t R = Ops.roundSize();
  auto MayIssue = [&](double Now) {
    if (StopAt)
      return Next < StopAt;
    return Now < Deadline || Next % R != 0;
  };
  auto Start = [&](Conn &C, double Now) {
    if (!MayIssue(Now) || (!Churn && C.Fd < 0))
      return;
    if (!issue(C, Now))
      finish(C, P, Record, Tr, false);
  };
  if (Record)
    P.Marks.push_back(WindowMark::now(0, 0));
  double NextMark = T0 + WindowSec;
  for (auto &C : Cs)
    Start(*C, wallSec());

  epoll_event Evs[64];
  double LastEvent = wallSec();
  while (Active > 0) {
    int N = ::epoll_wait(Ep, Evs, 64, 1000);
    double Now = wallSec();
    if (Record && Now >= NextMark) {
      P.Marks.push_back(WindowMark::now(P.Completed, P.LatMs.size()));
      NextMark += WindowSec;
    }
    if (N < 0 && errno != EINTR)
      break;
    if (N <= 0) {
      if (Now - LastEvent > StallSec) {
        Res.fail("server stalled: no reply for " + std::to_string(StallSec) + " s");
        for (auto &C : Cs)
          if (C->Busy)
            finish(*C, P, Record, Tr, false);
      }
      continue;
    }
    LastEvent = Now;
    for (int I = 0; I != N; ++I) {
      Conn &C = *static_cast<Conn *>(Evs[I].data.ptr);
      if (C.Fd < 0)
        continue;
      if (Evs[I].events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) {
        if (C.Connecting || !C.Out.empty())
          onWritable(C, P);
      }
      if (C.Fd >= 0 && (Evs[I].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) &&
          !C.Connecting)
        onReadable(C, P, Record, Tr);
      if (!C.Busy)
        Start(C, wallSec());
    }
  }
  if (Record)
    P.Marks.push_back(WindowMark::now(P.Completed, P.LatMs.size()));
  P.WallSec = wallSec() - T0;
  P.GenCpuSec = threadCpuSec() - C0;
  return P;
}
