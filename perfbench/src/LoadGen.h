//===----------------------------------------------------------------------===//
///
/// \file
/// The closed-loop load generator: one thread, one epoll set.
///
/// Keep-alive mode holds N connections with one exchange outstanding on
/// each; connect-per-operation mode keeps N operations in flight, each a
/// non-blocking connect, one request, its reply and a close.  A client
/// sends its next request only when the previous reply is complete,
/// because the protocol's clients wait for each reply.  Client sockets set
/// TCP_NODELAY; the server's sockets are left as the server makes them.
///
/// Every reply line is checked against the Exchange's expected lines as it
/// arrives.  A phase issues whole rounds of the operation stream: once its
/// time is up it stops issuing at the next round boundary and waits for
/// every outstanding exchange to finish.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LOADGEN_H
#define PERFBENCH_LOADGEN_H

#include "Common.h"
#include "Ops.h"
#include "Spans.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pb {

struct PhaseStats {
  uint64_t Completed = 0;
  uint64_t Failed = 0;
  double WallSec = 0;
  double GenCpuSec = 0;          ///< The generator thread's own CPU.
  std::vector<double> LatMs;     ///< One per completed op (when recorded).
  std::vector<uint8_t> LatVerb;  ///< Verb of each LatMs entry.
  std::vector<WindowMark> Marks; ///< Window boundaries (when recorded).
};

class LoadGen {
public:
  /// \p Churn: connect per operation; otherwise \p Conns keep-alive
  /// connections are opened by start().
  LoadGen(const OpStream &Ops, uint16_t Port, int Conns, bool Churn,
          RunResult &Res);
  ~LoadGen();
  LoadGen(const LoadGen &) = delete;
  LoadGen &operator=(const LoadGen &) = delete;

  /// Opens the keep-alive connections (no-op in churn mode).
  bool start();
  /// Runs one phase of at least \p Seconds, ending on a round boundary.
  /// Latencies are kept when \p Record; one span per op goes to \p Tr.
  PhaseStats run(double Seconds, bool Record, Spans *Tr = nullptr);
  /// Issues exactly \p Ops operations (a whole number of rounds).
  PhaseStats runCount(uint64_t Ops);
  /// Closes every connection.
  void closeAll();

private:
  struct Conn;
  PhaseStats loop(double Seconds, uint64_t Count, bool Record, Spans *Tr);
  bool issue(Conn &C, double Now);
  bool openChurn(Conn &C);
  bool sendRaw(Conn &C, const std::string &S);
  void onReadable(Conn &C, PhaseStats &P, bool Record, Spans *Tr);
  void onWritable(Conn &C, PhaseStats &P);
  void finish(Conn &C, PhaseStats &P, bool Record, Spans *Tr, bool Ok);
  void dropConn(Conn &C);

  const OpStream &Ops;
  uint16_t Port;
  int NConns;
  bool Churn;
  RunResult &Res;
  int Ep = -1;
  std::vector<std::unique_ptr<Conn>> Cs;
  uint64_t Next = 0;     ///< Index of the next op to issue.
  int Active = 0;
};

} // namespace pb

#endif // PERFBENCH_LOADGEN_H
