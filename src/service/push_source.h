// Blocking in-memory stream source fed by the service's /ingest endpoint
// (or the serve CLI's file feeder). The ingest engine pulls NextChunk on
// its router thread; producers push batches from HTTP connection threads.
//
// Unlike the polling sources in src/stream/source.h, NextChunk blocks while
// the queue is empty and the stream is still open, so the engine never
// burns its stall budget waiting for a quiet client — a zero-length pull
// means the stream is truly closed and drained. Backpressure is the bounded
// queue: Push blocks once `capacity` tuples are in flight, which
// propagates ingest overload to HTTP clients as slow POSTs rather than
// unbounded memory growth. Because the engine is the bottleneck under load,
// the queue then stays full, and every tuple waits about capacity ÷ rate
// before the engine sees it: the capacity is the service's freshness
// budget (docs/SERVICE.md §5).
//
// The queue is one fixed ring, allocated once and never initialised, so an
// idle source touches no pages. Each Push and NextChunk moves its tuples
// with at most two memcpy segments per lock hold. A side signals the other
// only when it has counted a waiter there; blocked producers are woken at a
// low-water mark (half the capacity) rather than on every pull, so a
// saturated feeder pays one wake-up per half buffer, not per chunk.
#ifndef SKETCHSAMPLE_SERVICE_PUSH_SOURCE_H_
#define SKETCHSAMPLE_SERVICE_PUSH_SOURCE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>

#include "src/stream/source.h"

namespace sketchsample {

class PushSource final : public StreamSource {
 public:
  /// `capacity` tuples may be queued at once (0 is clamped to 1).
  explicit PushSource(size_t capacity);

  /// Enqueues `n` tuples in order; blocks while the queue is full. Returns
  /// the number accepted — short only when the stream was closed while
  /// waiting (late producers must not reorder past end-of-stream).
  size_t Push(const uint64_t* values, size_t n);

  /// Marks end-of-stream: queued tuples still drain, then NextChunk
  /// returns 0 for good. Idempotent.
  void Close();

  bool closed() const;
  /// Tuples accepted by Push so far (including not-yet-consumed ones).
  uint64_t pushed() const;

  std::optional<uint64_t> Next() override;
  size_t NextChunk(uint64_t* out, size_t max_n) override;
  /// Never stalls: NextChunk blocks instead of returning transient zeros.
  bool Stalled() const override { return false; }

 private:
  const size_t capacity_;
  // Blocked producers wake once the queue has drained to this many tuples.
  const size_t low_water_;
  const std::unique_ptr<uint64_t[]> ring_;

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  size_t head_ = 0;  // ring index of the oldest queued tuple
  size_t size_ = 0;  // queued tuples
  size_t waiting_producers_ = 0;
  size_t waiting_consumers_ = 0;
  uint64_t pushed_ = 0;
  bool closed_ = false;
};

}  // namespace sketchsample

#endif  // SKETCHSAMPLE_SERVICE_PUSH_SOURCE_H_
