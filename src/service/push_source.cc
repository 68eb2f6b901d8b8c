#include "src/service/push_source.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "src/util/metrics.h"

namespace sketchsample {

PushSource::PushSource(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)),
      low_water_(capacity_ / 2),
      ring_(std::make_unique_for_overwrite<uint64_t[]>(capacity_)) {}

size_t PushSource::Push(const uint64_t* values, size_t n) {
  size_t accepted = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (accepted < n && !closed_) {
    if (size_ == capacity_) {
      ++waiting_producers_;
      not_full_.wait(lock, [this] { return closed_ || size_ < capacity_; });
      --waiting_producers_;
      continue;
    }
    const size_t take = std::min(capacity_ - size_, n - accepted);
    const size_t tail =
        head_ + size_ < capacity_ ? head_ + size_ : head_ + size_ - capacity_;
    const size_t first = std::min(take, capacity_ - tail);
    std::memcpy(ring_.get() + tail, values + accepted,
                first * sizeof(uint64_t));
    if (take > first) {
      std::memcpy(ring_.get(), values + accepted + first,
                  (take - first) * sizeof(uint64_t));
    }
    size_ += take;
    pushed_ += take;
    accepted += take;
    // Signalled before this producer can block on a full ring, so a waiting
    // consumer always learns of the tuples that fill it.
    if (waiting_consumers_ > 0) not_empty_.notify_all();
  }
  lock.unlock();
  SKETCHSAMPLE_METRIC_ADD("service.ingest.pushed", accepted);
  return accepted;
}

void PushSource::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool PushSource::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

uint64_t PushSource::pushed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pushed_;
}

std::optional<uint64_t> PushSource::Next() {
  uint64_t value = 0;
  return NextChunk(&value, 1) == 1 ? std::optional<uint64_t>(value)
                                   : std::nullopt;
}

size_t PushSource::NextChunk(uint64_t* out, size_t max_n) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (size_ == 0 && !closed_) {
    ++waiting_consumers_;
    not_empty_.wait(lock, [this] { return closed_ || size_ > 0; });
    --waiting_consumers_;
  }
  const size_t n = std::min(max_n, size_);
  if (n == 0) return 0;
  const size_t first = std::min(n, capacity_ - head_);
  std::memcpy(out, ring_.get() + head_, first * sizeof(uint64_t));
  if (n > first) {
    std::memcpy(out + first, ring_.get(), (n - first) * sizeof(uint64_t));
  }
  head_ = head_ + n < capacity_ ? head_ + n : head_ + n - capacity_;
  size_ -= n;
  // Every waiting producer is woken at once: several HTTP connection
  // threads can block on one full ring, and each must see the room.
  if (waiting_producers_ > 0 && size_ <= low_water_) not_full_.notify_all();
  return n;
}

}  // namespace sketchsample
