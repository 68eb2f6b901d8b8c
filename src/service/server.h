// Blocking-socket HTTP/1.1 server for the sketch service.
//
// Topology: one acceptor thread plus one thread per live connection, drawn
// from a fixed slot pool of `max_connections`. Each slot doubles as the
// connection's RcuCell reader index (src/service/snapshot.h), so a request
// handler can borrow the current snapshot wait-free with no coordination
// beyond "my slot is mine". Over-capacity connections get an immediate 503
// and close — the service degrades loudly instead of queueing invisibly.
//
// Keep-alive and pipelining are handled by the incremental parser
// (src/service/http.h); a parse error answers with the parser's status and
// closes (the stream cannot be re-synced). Stop() shuts down the listener
// and every live connection socket, then joins all threads — safe to call
// from any thread, idempotent.
//
// Overload resilience (docs/ROBUSTNESS.md "query-side shedding"): every
// request runs under a wall-clock deadline budget covering read, compute,
// and write — a slow-loris header or body trickle gets 408 when the budget
// expires, and the response write runs under SO_SNDTIMEO derived from the
// remaining budget so a stalled reader cannot hold a slot. An optional
// AdmissionController (src/service/admission.h) gates parsed requests with
// 429/503 + Retry-After before any handler work; /healthz and /stats are
// always admitted. All socket I/O routes through the chaos seams
// (src/service/chaos.h) so tests inject partial reads/writes, resets, and
// delays deterministically.
#ifndef SKETCHSAMPLE_SERVICE_SERVER_H_
#define SKETCHSAMPLE_SERVICE_SERVER_H_

#include "src/util/atomics_policy.h"
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/service/admission.h"
#include "src/service/http.h"
#include "src/service/router.h"

namespace sketchsample {

struct HttpServerOptions {
  std::string bind_address = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; read the bound port from port()
  /// Live-connection cap == reader-slot count == max handler concurrency.
  size_t max_connections = 64;
  /// Per-read socket timeout; an idle keep-alive connection is closed after
  /// this long (0 = never).
  int recv_timeout_ms = 10000;
  /// Per-request wall-clock budget in ms, enforced across read, compute,
  /// and write: the clock starts at the first byte of a request, a header
  /// or body trickle past the budget answers 408 and closes, and the
  /// response write runs under SO_SNDTIMEO set from the remaining budget so
  /// a stalled reader cannot wedge the slot. 0 disables deadlines (writes
  /// then fall back to recv_timeout_ms as the send timeout).
  int default_deadline_ms = 5000;
  /// Cap for the client-requested X-Deadline-Ms header; a request may
  /// shrink or stretch its own budget within [1, max_deadline_ms].
  int max_deadline_ms = 30000;
  /// Admission controller gating requests at parse time (not owned; null =
  /// admit everything). /healthz and /stats are always admitted.
  AdmissionController* admission = nullptr;
  HttpLimits limits;
};

struct HttpServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  ///< 503s at the accept gate
  uint64_t admission_rejected = 0;    ///< parse-time 429/503 admission rejects
  uint64_t deadline_exceeded = 0;     ///< read/write-phase deadline expiries
  uint64_t requests = 0;
  uint64_t parse_errors = 0;
};

class HttpServer {
 public:
  /// `router` must outlive the server.
  HttpServer(const Router* router, const HttpServerOptions& options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts the acceptor. Throws std::runtime_error on
  /// socket/bind failure.
  void Start();

  /// Stops accepting, shuts down live connections, joins every thread.
  void Stop();

  /// The bound port (valid after Start; resolves port 0).
  int port() const { return port_; }

  HttpServerStats stats() const;

 private:
  struct Connection;

  void AcceptLoop();
  void ConnectionLoop(Connection* connection);
  // The send timeout an accepted socket starts with.
  int BaselineSendTimeoutMs() const;

  const Router* router_;
  HttpServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  StdAtomics::Atomic<bool> stopping_{false};
  bool started_ = false;
  std::thread acceptor_;

  // Fixed connection slots; slot index == RcuCell reader slot.
  std::vector<std::unique_ptr<Connection>> slots_;
  std::mutex slots_mutex_;  // slot claim/release + thread reaping only

  StdAtomics::Atomic<uint64_t> connections_accepted_{0};
  StdAtomics::Atomic<uint64_t> connections_rejected_{0};
  StdAtomics::Atomic<uint64_t> admission_rejected_{0};
  StdAtomics::Atomic<uint64_t> deadline_exceeded_{0};
  StdAtomics::Atomic<uint64_t> requests_{0};
  StdAtomics::Atomic<uint64_t> parse_errors_{0};
};

}  // namespace sketchsample

#endif  // SKETCHSAMPLE_SERVICE_SERVER_H_
