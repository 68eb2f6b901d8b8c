#include "src/service/chaos.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/util/atomics_policy.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"

namespace sketchsample {

namespace {

// 53-bit uniform in [0, 1) from a mixed draw (Xoshiro256::NextDouble's
// resolution).
double ToUnit(uint64_t mixed) {
  return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

// Process-wide installation point consulted by the socket seams. With no
// injector installed, a seam pays one load of `installed`; otherwise it
// copies the owning pointer under the lock, so the injector outlives the
// call even when it is uninstalled meanwhile.
struct Installation {
  StdAtomics::Atomic<bool> installed{false};
  std::mutex mutex;
  std::shared_ptr<ChaosInjector> injector;
};

Installation& Installed() {
  static Installation installation;
  return installation;
}

std::shared_ptr<ChaosInjector> CurrentInjector() {
  Installation& slot = Installed();
  if (!slot.installed.load(MemOrder::kAcquire)) return nullptr;
  std::lock_guard<std::mutex> lock(slot.mutex);
  return slot.injector;
}

}  // namespace

bool ChaosProfile::Active() const {
  return partial_read_prob > 0.0 || partial_write_prob > 0.0 ||
         reset_prob > 0.0 || (delay_prob > 0.0 && delay_max_us > 0);
}

ChaosProfile ChaosProfile::FromName(const std::string& name) {
  ChaosProfile profile;
  if (name == "none" || name.empty()) return profile;
  if (name == "mild") {
    profile.partial_read_prob = 0.05;
    profile.partial_write_prob = 0.05;
    profile.reset_prob = 0.001;
    profile.delay_prob = 0.01;
    profile.delay_max_us = 1000;
    return profile;
  }
  if (name == "harsh") {
    profile.partial_read_prob = 0.25;
    profile.partial_write_prob = 0.25;
    profile.reset_prob = 0.01;
    profile.delay_prob = 0.05;
    profile.delay_max_us = 5000;
    return profile;
  }
  throw std::invalid_argument("unknown chaos profile: " + name);
}

ChaosInjector::ChaosInjector(const ChaosProfile& profile, uint64_t seed)
    : profile_(profile), seed_(seed) {}

ChaosInjector::OpPlan ChaosInjector::PlanOp(int fd, size_t n, bool is_send) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = fds_.try_emplace(fd);
  if (inserted) it->second.serial = next_serial_++;
  // Positional draw base: one stream per (fd serial, op index); the four
  // decision draws are sub-streams of it.
  const uint64_t base =
      MixSeed(seed_, (it->second.serial << 24) ^ it->second.ops++);
  OpPlan plan;
  if (profile_.delay_prob > 0.0 && profile_.delay_max_us > 0 &&
      ToUnit(MixSeed(base, 0)) < profile_.delay_prob) {
    plan.delay_us = 1 + MixSeed(base, 1) % profile_.delay_max_us;
    ++injected_;
  }
  if (profile_.reset_prob > 0.0 &&
      ToUnit(MixSeed(base, 2)) < profile_.reset_prob) {
    plan.reset = true;
    ++injected_;
    return plan;
  }
  const double partial_prob =
      is_send ? profile_.partial_write_prob : profile_.partial_read_prob;
  if (n >= 2 && partial_prob > 0.0 &&
      ToUnit(MixSeed(base, 3)) < partial_prob) {
    // A strictly short count: at most half the requested length, never 0.
    plan.clamped_n = 1 + static_cast<size_t>(MixSeed(base, 4) %
                                             std::max<uint64_t>(1, n / 2));
    ++injected_;
  }
  return plan;
}

ssize_t ChaosInjector::Recv(int fd, void* buf, size_t n, int flags) {
  const OpPlan plan = PlanOp(fd, n, /*is_send=*/false);
  if (plan.delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(plan.delay_us));
  }
  if (plan.reset) {
    SKETCHSAMPLE_METRIC_INC("service.chaos.injected");
    errno = ECONNRESET;
    return -1;
  }
  if (plan.clamped_n > 0) {
    SKETCHSAMPLE_METRIC_INC("service.chaos.injected");
    n = std::min(n, plan.clamped_n);
  }
  return ::recv(fd, buf, n, flags);
}

ssize_t ChaosInjector::Send(int fd, const void* buf, size_t n, int flags) {
  const OpPlan plan = PlanOp(fd, n, /*is_send=*/true);
  if (plan.delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(plan.delay_us));
  }
  if (plan.reset) {
    SKETCHSAMPLE_METRIC_INC("service.chaos.injected");
    errno = ECONNRESET;
    return -1;
  }
  if (plan.clamped_n > 0) {
    SKETCHSAMPLE_METRIC_INC("service.chaos.injected");
    n = std::min(n, plan.clamped_n);
  }
  return ::send(fd, buf, n, flags);
}

void ChaosInjector::OnClose(int fd) {
  std::lock_guard<std::mutex> lock(mutex_);
  fds_.erase(fd);
}

uint64_t ChaosInjector::injected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return injected_;
}

void InstallChaosInjector(std::shared_ptr<ChaosInjector> injector) {
  Installation& slot = Installed();
  std::lock_guard<std::mutex> lock(slot.mutex);
  slot.installed.store(injector != nullptr, MemOrder::kRelease);
  // The previous injector dies here unless a seam still holds it.
  slot.injector = std::move(injector);
}

ssize_t ChaosRecv(int fd, void* buf, size_t n, int flags) {
  const std::shared_ptr<ChaosInjector> injector = CurrentInjector();
  if (injector == nullptr) return ::recv(fd, buf, n, flags);
  return injector->Recv(fd, buf, n, flags);
}

ssize_t ChaosSend(int fd, const void* buf, size_t n, int flags) {
  const std::shared_ptr<ChaosInjector> injector = CurrentInjector();
  if (injector == nullptr) return ::send(fd, buf, n, flags);
  return injector->Send(fd, buf, n, flags);
}

void ChaosOnClose(int fd) {
  const std::shared_ptr<ChaosInjector> injector = CurrentInjector();
  if (injector != nullptr) injector->OnClose(fd);
}

uint64_t ChaosSeedFromEnv(uint64_t fallback) {
  const char* text = std::getenv("SKETCHSAMPLE_CHAOS_SEED");
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == nullptr || *end != '\0') return fallback;
  return static_cast<uint64_t>(value);
}

}  // namespace sketchsample
