// Deterministic socket-level fault injection for the service layer, in the
// spirit of src/stream/faults.h: the network failures a production HTTP
// service actually sees — short reads and writes, connection resets, and
// bounded delays — as pure functions of a 64-bit seed, so a failing test
// prints its seed and the exact fault sequence reproduces.
//
// Mechanism: the server and client route every socket read/write through
// ChaosRecv/ChaosSend below. With no injector installed (the production
// default) these are the plain syscalls plus one atomic flag load.
// Under test, ScopedChaosInjector installs a process-wide ChaosInjector
// whose per-(fd, op) decisions are positional: each fd gets a serial in
// first-use order and each of its operations an index, and the fault draw
// is MixSeed(seed, serial, index) — independent of wall clock and of what
// other connections are doing, so single-connection tests are bit-exact.
//
// Slow-loris clients are the one fault that cannot be injected under the
// victim's own syscalls — the attacker controls the pacing — so tests
// drive those with a raw trickling socket (tests/chaos_test.cc) against
// the server's deadline enforcement.
#ifndef SKETCHSAMPLE_SERVICE_CHAOS_H_
#define SKETCHSAMPLE_SERVICE_CHAOS_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace sketchsample {

/// What to inject and how often; probabilities are per socket operation.
struct ChaosProfile {
  /// P[a recv length is clamped to a strictly short count].
  double partial_read_prob = 0.0;
  /// P[a send length is clamped to a strictly short count].
  double partial_write_prob = 0.0;
  /// P[the operation fails with ECONNRESET instead of running].
  double reset_prob = 0.0;
  /// P[the operation is delayed first], bounded by delay_max_us.
  double delay_prob = 0.0;
  uint64_t delay_max_us = 0;

  /// True when any fault can fire.
  bool Active() const;

  /// Named presets: "none", "mild" (occasional short counts and delays,
  /// rare resets), "harsh" (frequent short counts, delays, and resets).
  /// Throws std::invalid_argument for unknown names.
  static ChaosProfile FromName(const std::string& name);
};

/// Seed-deterministic socket fault injector. Thread-safe: decisions for
/// different fds are independent, and per-fd operation indices are assigned
/// under a lock in arrival order.
class ChaosInjector {
 public:
  ChaosInjector(const ChaosProfile& profile, uint64_t seed);

  /// Chaos-wrapped ::recv / ::send. Identical semantics when no fault
  /// fires; an injected reset returns -1 with errno = ECONNRESET.
  ssize_t Recv(int fd, void* buf, size_t n, int flags);
  ssize_t Send(int fd, const void* buf, size_t n, int flags);

  /// Drops the fd's positional state (call when the socket closes, so a
  /// reused fd number starts a fresh fault stream).
  void OnClose(int fd);

  /// Total faults injected (short counts + resets + delays).
  uint64_t injected() const;

  const ChaosProfile& profile() const { return profile_; }

 private:
  struct FdState {
    uint64_t serial = 0;  // first-use order, the positional stream id
    uint64_t ops = 0;     // operations issued on this fd so far
  };
  struct OpPlan {
    uint64_t delay_us = 0;
    bool reset = false;
    size_t clamped_n = 0;  // 0 = full length
  };
  OpPlan PlanOp(int fd, size_t n, bool is_send);

  ChaosProfile profile_;
  uint64_t seed_;
  mutable std::mutex mutex_;
  std::map<int, FdState> fds_;
  uint64_t next_serial_ = 0;
  uint64_t injected_ = 0;
};

/// Installs `injector` process-wide (nullptr uninstalls). Ownership is
/// shared: every seam call holds its own reference for the duration of the
/// call, so an injector uninstalled while a connection thread is still
/// inside it lives until that call returns.
void InstallChaosInjector(std::shared_ptr<ChaosInjector> injector);

/// RAII install/uninstall of an injector built from (profile, seed), for
/// tests and the serve/loadgen tools.
class ScopedChaosInjector {
 public:
  ScopedChaosInjector(const ChaosProfile& profile, uint64_t seed)
      : injector_(std::make_shared<ChaosInjector>(profile, seed)) {
    InstallChaosInjector(injector_);
  }
  ~ScopedChaosInjector() { InstallChaosInjector(nullptr); }
  ScopedChaosInjector(const ScopedChaosInjector&) = delete;
  ScopedChaosInjector& operator=(const ScopedChaosInjector&) = delete;

  ChaosInjector* injector() const { return injector_.get(); }

 private:
  std::shared_ptr<ChaosInjector> injector_;
};

/// The socket seams the server and client call instead of ::recv/::send/
/// ::close bookkeeping. No injector installed → plain syscalls.
ssize_t ChaosRecv(int fd, void* buf, size_t n, int flags);
ssize_t ChaosSend(int fd, const void* buf, size_t n, int flags);
void ChaosOnClose(int fd);

/// Seed override hook for CI, mirroring FaultSeedFromEnv: reads the decimal
/// SKETCHSAMPLE_CHAOS_SEED environment variable, falling back to `fallback`
/// when unset or malformed. Any failing test must print the chosen seed.
uint64_t ChaosSeedFromEnv(uint64_t fallback);

}  // namespace sketchsample

#endif  // SKETCHSAMPLE_SERVICE_CHAOS_H_
