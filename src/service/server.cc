#include "src/service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "src/service/chaos.h"
#include "src/util/metrics.h"

namespace sketchsample {

namespace {

// Writes the whole buffer, riding out EINTR and partial writes. False when
// the peer is gone or SO_SNDTIMEO expires mid-write (EAGAIN) — a stalled
// reader must not hold the slot.
bool WriteAll(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ChaosSend(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

void CloseFd(int fd) {
  if (fd >= 0) {
    ChaosOnClose(fd);
    ::close(fd);
  }
}

// Sets SO_RCVTIMEO / SO_SNDTIMEO; timeout_ms <= 0 means "no timeout".
void SetSocketTimeout(int fd, int which, int timeout_ms) {
  timeval tv{};
  if (timeout_ms > 0) {
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
  }
  ::setsockopt(fd, SOL_SOCKET, which, &tv, sizeof(tv));
}

// One connection's socket timeouts as last set. The connection loop
// re-derives them before every read and every response; only a changed
// value reaches setsockopt. Values <= 0 are stored as 0, since
// SetSocketTimeout treats them all as "no timeout".
class SocketTimeouts {
 public:
  // `recv_ms` and `send_ms` are what the socket was last set to.
  SocketTimeouts(int fd, int recv_ms, int send_ms)
      : fd_(fd), recv_ms_(std::max(recv_ms, 0)),
        send_ms_(std::max(send_ms, 0)) {}

  void Receive(int ms) { Arm(SO_RCVTIMEO, recv_ms_, ms); }
  void Send(int ms) { Arm(SO_SNDTIMEO, send_ms_, ms); }

 private:
  void Arm(int which, int& last, int ms) {
    ms = std::max(ms, 0);
    if (ms == last) return;
    SetSocketTimeout(fd_, which, ms);
    last = ms;
  }

  int fd_;
  int recv_ms_;
  int send_ms_;
};

// Strict decimal uint64 for the X-Deadline-Ms header value.
bool ParseHeaderU64(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 19) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

using SteadyClock = std::chrono::steady_clock;

// Milliseconds until `deadline` (rounded up), clamped to >= 0.
int MsUntil(SteadyClock::time_point deadline, SteadyClock::time_point now) {
  if (now >= deadline) return 0;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - now)
                        .count() +
                    1;
  return left > INT_MAX ? INT_MAX : static_cast<int>(left);
}

}  // namespace

struct HttpServer::Connection {
  size_t slot = 0;
  StdAtomics::Atomic<int> fd{-1};
  bool busy = false;  // guarded by slots_mutex_
  std::thread thread;
};

HttpServer::HttpServer(const Router* router, const HttpServerOptions& options)
    : router_(router), options_(options) {
  if (options_.max_connections == 0) options_.max_connections = 1;
  slots_.reserve(options_.max_connections);
  for (size_t s = 0; s < options_.max_connections; ++s) {
    slots_.push_back(std::make_unique<Connection>());
    slots_.back()->slot = s;
  }
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("HttpServer: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("HttpServer: bad bind address " +
                             options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("HttpServer: bind failed: ") +
                             std::strerror(err));
  }
  if (::listen(listen_fd_, 128) != 0) {
    const int err = errno;
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("HttpServer: listen failed: ") +
                             std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  stopping_.store(false, MemOrder::kRelease);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  SKETCHSAMPLE_METRIC_INC("service.server.starts");
}

void HttpServer::Stop() {
  if (!started_) return;
  stopping_.store(true, MemOrder::kRelease);
  // Shutting the listener down unblocks accept() in the acceptor thread.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  CloseFd(listen_fd_);
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    for (auto& slot : slots_) {
      const int fd = slot->fd.load(MemOrder::kAcquire);
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
  }
  // Joining outside the mutex: connection threads take it to release their
  // slot on exit.
  for (auto& slot : slots_) {
    if (slot->thread.joinable()) slot->thread.join();
  }
  started_ = false;
}

int HttpServer::BaselineSendTimeoutMs() const {
  return options_.default_deadline_ms > 0 ? options_.default_deadline_ms
                                          : options_.recv_timeout_ms;
}

HttpServerStats HttpServer::stats() const {
  HttpServerStats stats;
  stats.connections_accepted =
      connections_accepted_.load(MemOrder::kRelaxed);
  stats.connections_rejected =
      connections_rejected_.load(MemOrder::kRelaxed);
  stats.admission_rejected = admission_rejected_.load(MemOrder::kRelaxed);
  stats.deadline_exceeded = deadline_exceeded_.load(MemOrder::kRelaxed);
  stats.requests = requests_.load(MemOrder::kRelaxed);
  stats.parse_errors = parse_errors_.load(MemOrder::kRelaxed);
  return stats;
}

void HttpServer::AcceptLoop() {
  while (!stopping_.load(MemOrder::kAcquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(MemOrder::kAcquire)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener is gone; nothing sane to do but stop accepting
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    SetSocketTimeout(fd, SO_RCVTIMEO, options_.recv_timeout_ms);
    // Baseline send timeout so no write can ever block forever; per-response
    // writes re-derive it from the remaining deadline budget.
    SetSocketTimeout(fd, SO_SNDTIMEO, BaselineSendTimeoutMs());

    Connection* claimed = nullptr;
    {
      std::lock_guard<std::mutex> lock(slots_mutex_);
      for (auto& slot : slots_) {
        if (slot->busy) continue;
        // The slot's previous thread (if any) has finished; reap it before
        // reuse.
        if (slot->thread.joinable()) slot->thread.join();
        slot->busy = true;
        slot->fd.store(fd, MemOrder::kRelease);
        claimed = slot.get();
        break;
      }
    }
    if (claimed == nullptr) {
      connections_rejected_.fetch_add(1, MemOrder::kRelaxed);
      SKETCHSAMPLE_METRIC_INC("service.server.rejected");
      HttpResponse response = ErrorResponse(503, "connection limit reached");
      response.keep_alive = false;
      // A full slot pool usually drains within a request's service time;
      // hint one second so well-behaved clients back off instead of
      // hammering the accept gate.
      response.retry_after_s = 1;
      const std::string bytes = response.Serialize();
      WriteAll(fd, bytes.data(), bytes.size());
      CloseFd(fd);
      continue;
    }
    connections_accepted_.fetch_add(1, MemOrder::kRelaxed);
    SKETCHSAMPLE_METRIC_INC("service.server.connections");
    claimed->thread = std::thread([this, claimed] { ConnectionLoop(claimed); });
  }
}

void HttpServer::ConnectionLoop(Connection* connection) {
  const int fd = connection->fd.load(MemOrder::kAcquire);
  SocketTimeouts timeouts(fd, options_.recv_timeout_ms,
                          BaselineSendTimeoutMs());
  HttpRequestParser parser(options_.limits);
  char buffer[16384];
  bool open = true;
  // Read-phase deadline state: the clock starts when the first byte of a
  // request arrives and resets per request, so a slow-loris client — header
  // trickle or body trickle — can hold the slot for at most one budget.
  bool in_request = false;
  SteadyClock::time_point request_start{};
  const auto read_deadline = [&] {
    return request_start +
           std::chrono::milliseconds(options_.default_deadline_ms);
  };
  const auto send_timeout_408 = [&] {
    deadline_exceeded_.fetch_add(1, MemOrder::kRelaxed);
    SKETCHSAMPLE_METRIC_INC("service.deadline_exceeded");
    HttpResponse response =
        ErrorResponse(408, "request read deadline exceeded");
    response.keep_alive = false;
    const std::string bytes = response.Serialize();
    timeouts.Send(1000);
    WriteAll(fd, bytes.data(), bytes.size());
  };
  while (open && !stopping_.load(MemOrder::kAcquire)) {
    // Between requests the idle keep-alive timeout applies; mid-request the
    // remaining deadline budget governs every read.
    int wait_ms = options_.recv_timeout_ms;
    if (in_request && options_.default_deadline_ms > 0) {
      const int remaining = MsUntil(read_deadline(), SteadyClock::now());
      if (remaining == 0) {
        send_timeout_408();
        break;
      }
      wait_ms = wait_ms > 0 ? std::min(wait_ms, remaining) : remaining;
    }
    timeouts.Receive(wait_ms);
    const ssize_t r = ChaosRecv(fd, buffer, sizeof(buffer), 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if ((errno == EAGAIN || errno == EWOULDBLOCK) && in_request &&
          options_.default_deadline_ms > 0) {
        // recv timed out mid-request; if the budget survived (shorter
        // recv_timeout), keep waiting, otherwise tear the request down.
        if (SteadyClock::now() < read_deadline()) continue;
        send_timeout_408();
      }
      break;  // idle timeout or reset — close quietly
    }
    if (r == 0) break;  // peer closed
    if (!in_request) {
      in_request = true;
      request_start = SteadyClock::now();
    }
    parser.Feed(buffer, static_cast<size_t>(r));
    HttpRequest request;
    size_t processed = 0;
    while (open && parser.Next(&request)) {
      ++processed;
      requests_.fetch_add(1, MemOrder::kRelaxed);
      RequestContext context;
      context.reader_slot = connection->slot;
      // The request's budget runs from its first byte; X-Deadline-Ms lets a
      // client shrink or stretch it within the server's cap.
      if (options_.default_deadline_ms > 0) {
        uint64_t budget_ms = static_cast<uint64_t>(options_.default_deadline_ms);
        if (const auto it = request.headers.find("x-deadline-ms");
            it != request.headers.end()) {
          uint64_t requested = 0;
          if (ParseHeaderU64(it->second, &requested) && requested > 0) {
            budget_ms = std::min<uint64_t>(
                requested, static_cast<uint64_t>(options_.max_deadline_ms));
          }
        }
        context.deadline =
            request_start + std::chrono::milliseconds(budget_ms);
      }
      AdmissionController* admission = options_.admission;
      context.admission = admission;
      context.server.connections_rejected =
          connections_rejected_.load(MemOrder::kRelaxed);
      context.server.admission_rejected =
          admission_rejected_.load(MemOrder::kRelaxed);
      context.server.deadline_exceeded =
          deadline_exceeded_.load(MemOrder::kRelaxed);
      context.server.valid = true;

      // Admission gate at parse time: liveness endpoints always pass, the
      // rest pay the 429/503 + Retry-After toll when the controller sheds.
      const bool exempt =
          request.path == "/healthz" || request.path == "/stats";
      bool holding_slot = false;
      HttpResponse response;
      if (admission != nullptr && !exempt) {
        const AdmissionController::Decision decision = admission->Admit();
        if (!decision.admitted) {
          admission_rejected_.fetch_add(1, MemOrder::kRelaxed);
          SKETCHSAMPLE_METRIC_INC("service.admission.rejected");
          response = ErrorResponse(decision.status,
                                   decision.status == 429
                                       ? "admission control shed this request"
                                       : "service overloaded");
          response.retry_after_s = decision.retry_after_s;
        } else {
          holding_slot = true;
          SKETCHSAMPLE_METRIC_INC("service.admission.admitted");
        }
      }
      if (holding_slot || admission == nullptr || exempt) {
        context.admission_saturated =
            admission != nullptr && admission->saturated();
        response = router_->Dispatch(request, context);
      }
      if (holding_slot) admission->OnDone();
      response.keep_alive = response.keep_alive && request.keep_alive;
      // Write under the remaining budget: SO_SNDTIMEO makes a stalled
      // reader fail the write (EAGAIN) instead of wedging the slot.
      int send_ms = options_.recv_timeout_ms;
      if (context.HasDeadline()) {
        const int remaining = context.RemainingMs();
        send_ms = remaining > 0 ? remaining : 1;
      }
      timeouts.Send(send_ms);
      const std::string bytes = response.Serialize();
      if (!WriteAll(fd, bytes.data(), bytes.size())) {
        open = false;
        if (context.DeadlineExpired()) {
          deadline_exceeded_.fetch_add(1, MemOrder::kRelaxed);
          SKETCHSAMPLE_METRIC_INC("service.deadline_exceeded");
        }
      }
      if (!response.keep_alive) open = false;
    }
    if (parser.error()) {
      parse_errors_.fetch_add(1, MemOrder::kRelaxed);
      HttpResponse response =
          ErrorResponse(parser.error_status(), parser.error_message());
      response.keep_alive = false;
      const std::string bytes = response.Serialize();
      WriteAll(fd, bytes.data(), bytes.size());
      break;
    }
    // Re-arm the read-phase clock: a fresh partial request (pipelined bytes
    // past the last complete one) gets a full budget from now.
    in_request = parser.buffered() > 0;
    if (in_request && processed > 0) request_start = SteadyClock::now();
  }
  CloseFd(fd);
  std::lock_guard<std::mutex> lock(slots_mutex_);
  connection->fd.store(-1, MemOrder::kRelease);
  connection->busy = false;
}

}  // namespace sketchsample
