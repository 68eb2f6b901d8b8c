// Unit tests for PushSource (src/service/push_source.h), the bounded
// blocking queue between the service's producers (HTTP connection threads,
// the serve CLI's file feeder) and the ingest engine's router thread:
//
//  - FIFO order across wrap-around at capacities 1, 3 and 4096, with push
//    and pull sizes that straddle the end of the buffer;
//  - Close: queued tuples still drain, then NextChunk returns 0 for good,
//    and a Push blocked at capacity returns a short count;
//  - blocking at capacity until the consumer pulls;
//  - several producers blocked on one full buffer all finish (a single
//    "someone is waiting" flag loses one of the wake-ups);
//  - four producers and one consumer lose, duplicate and reorder nothing.
//
// Runs under the `tsan` ctest label. Every blocking scenario runs under a
// watchdog that closes the source on timeout, so a lost wake-up fails the
// test instead of hanging the suite.

// lint:allow-file(raw-atomic-confined): progress flags coordinating real
// producer/consumer threads in the harness; harness-side only.
#include "src/service/push_source.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/util/rng.h"

namespace sketchsample {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

// Runs `body` on its own thread. If it has not finished within `limit`,
// closes `source` so every blocked call returns, waits for `body`, and
// reports false.
bool FinishesWithin(seconds limit, PushSource& source,
                    const std::function<void()>& body) {
  std::future<void> done = std::async(std::launch::async, body);
  if (done.wait_for(limit) == std::future_status::ready) {
    done.get();
    return true;
  }
  source.Close();
  done.get();
  return false;
}

// Pulls until end of stream, `max_n` tuples at most per call.
std::vector<uint64_t> DrainAll(PushSource& source, size_t max_n) {
  std::vector<uint64_t> out;
  std::vector<uint64_t> chunk(max_n);
  while (const size_t n = source.NextChunk(chunk.data(), max_n)) {
    out.insert(out.end(), chunk.begin(), chunk.begin() + n);
  }
  return out;
}

std::vector<uint64_t> Iota(uint64_t first, size_t n) {
  std::vector<uint64_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = first + i;
  return out;
}

// Single-threaded, so every Push fits: each step fills the free room in two
// pushes and pulls a varying amount, which walks the buffer's start around
// the whole ring and makes pushes and pulls straddle its end.
void ExpectFifoAcrossWrapAround(size_t capacity) {
  SCOPED_TRACE(capacity);
  PushSource source(capacity);
  const uint64_t total = 40 * capacity + 7;
  const size_t pull_sizes[] = {1, 2, capacity / 2 + 1, capacity, 3};
  uint64_t next_push = 0;
  uint64_t next_pull = 0;
  std::vector<uint64_t> out(capacity);
  for (size_t step = 0; next_pull < total; ++step) {
    const uint64_t room = capacity - (next_push - next_pull);
    const uint64_t fill = std::min(room, total - next_push);
    const uint64_t first = std::min<uint64_t>(fill, step % 3 + 1);
    for (const uint64_t n : {first, fill - first}) {
      const std::vector<uint64_t> values = Iota(next_push, n);
      ASSERT_EQ(source.Push(values.data(), n), n);
      next_push += n;
    }
    EXPECT_EQ(source.pushed(), next_push);
    const size_t want = std::min(pull_sizes[step % 5], capacity);
    const size_t got = source.NextChunk(out.data(), want);
    ASSERT_EQ(got, std::min<uint64_t>(want, next_push - next_pull));
    for (size_t i = 0; i < got; ++i) {
      ASSERT_EQ(out[i], next_pull + i) << "step " << step;
    }
    next_pull += got;
  }
  source.Close();
  EXPECT_EQ(source.NextChunk(out.data(), capacity), 0u);
}

TEST(PushSourceTest, FifoAcrossWrapAroundAtCapacityOne) {
  ExpectFifoAcrossWrapAround(1);
}

TEST(PushSourceTest, FifoAcrossWrapAroundAtCapacityThree) {
  ExpectFifoAcrossWrapAround(3);
}

TEST(PushSourceTest, FifoAcrossWrapAroundAtCapacity4096) {
  ExpectFifoAcrossWrapAround(4096);
}

TEST(PushSourceTest, CloseDrainsQueuedTuplesThenEndsForGood) {
  PushSource source(16);
  const std::vector<uint64_t> values = Iota(100, 10);
  ASSERT_EQ(source.Push(values.data(), values.size()), values.size());
  EXPECT_FALSE(source.closed());
  source.Close();
  source.Close();  // idempotent
  EXPECT_TRUE(source.closed());
  EXPECT_EQ(source.Push(values.data(), values.size()), 0u)
      << "a push after Close must not extend the stream";
  EXPECT_EQ(source.pushed(), values.size());

  uint64_t out[4];
  EXPECT_EQ(source.NextChunk(out, 4), 4u);
  EXPECT_EQ(out[0], 100u);
  EXPECT_EQ(source.Next(), std::optional<uint64_t>(104));
  std::vector<uint64_t> rest = DrainAll(source, 4);
  EXPECT_EQ(rest, Iota(105, 5));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(source.NextChunk(out, 4), 0u);
    EXPECT_EQ(source.Next(), std::nullopt);
  }
}

TEST(PushSourceTest, BlockedPushReturnsShortCountOnClose) {
  constexpr size_t kCapacity = 4;
  PushSource source(kCapacity);
  const std::vector<uint64_t> prefill = Iota(0, 2);
  ASSERT_EQ(source.Push(prefill.data(), prefill.size()), prefill.size());

  const std::vector<uint64_t> values = Iota(2, 10);
  std::atomic<bool> returned{false};
  size_t accepted = 0;
  std::thread producer([&] {
    accepted = source.Push(values.data(), values.size());
    returned.store(true);
  });
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(returned.load()) << "Push must block with the buffer full";
  source.Close();
  producer.join();
  EXPECT_LT(accepted, values.size());
  EXPECT_LE(accepted, kCapacity - prefill.size());

  // The accepted prefix drains in order, nothing past it.
  EXPECT_EQ(DrainAll(source, 3), Iota(0, prefill.size() + accepted));
  EXPECT_EQ(source.pushed(), prefill.size() + accepted);
}

TEST(PushSourceTest, ProducerBlocksAtCapacityUntilConsumerPulls) {
  constexpr size_t kCapacity = 8;
  PushSource source(kCapacity);
  const std::vector<uint64_t> full = Iota(0, kCapacity);
  ASSERT_EQ(source.Push(full.data(), full.size()), full.size());

  const std::vector<uint64_t> more = Iota(kCapacity, 4);
  std::atomic<bool> returned{false};
  bool finished = false;
  std::thread producer([&] {
    finished = FinishesWithin(seconds(30), source, [&] {
      EXPECT_EQ(source.Push(more.data(), more.size()), more.size());
      returned.store(true);
    });
  });
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(returned.load()) << "Push must block with the buffer full";

  uint64_t out[kCapacity];
  ASSERT_EQ(source.NextChunk(out, kCapacity), kCapacity);
  EXPECT_EQ(std::vector<uint64_t>(out, out + kCapacity), full);
  producer.join();
  ASSERT_TRUE(finished) << "the blocked producer was never woken";
  EXPECT_TRUE(returned.load());
  source.Close();
  EXPECT_EQ(DrainAll(source, kCapacity), more);
}

TEST(PushSourceTest, TwoProducersBlockedOnAFullBufferBothFinish) {
  constexpr size_t kCapacity = 4;
  constexpr size_t kPerProducer = 1000;
  PushSource source(kCapacity);
  const std::vector<uint64_t> full = Iota(0, kCapacity);
  ASSERT_EQ(source.Push(full.data(), full.size()), full.size());

  // Both producers start against a full buffer, so both are waiting when
  // the consumer's first pull makes room.
  std::vector<std::thread> producers;
  std::atomic<size_t> accepted{0};
  for (uint64_t p = 1; p <= 2; ++p) {
    producers.emplace_back([&, p] {
      const std::vector<uint64_t> values = Iota(p << 32, kPerProducer);
      for (size_t i = 0; i < values.size(); i += 7) {
        const size_t n = std::min<size_t>(7, values.size() - i);
        accepted += source.Push(values.data() + i, n);
      }
    });
  }
  std::this_thread::sleep_for(milliseconds(20));
  std::vector<uint64_t> received;
  const bool finished = FinishesWithin(seconds(30), source, [&] {
    uint64_t out[3];
    while (received.size() < kCapacity + 2 * kPerProducer) {
      const size_t n = source.NextChunk(out, 3);
      if (n == 0) break;
      received.insert(received.end(), out, out + n);
    }
  });
  for (std::thread& t : producers) t.join();
  ASSERT_TRUE(finished) << "a producer blocked on the full buffer was lost";
  EXPECT_EQ(accepted.load(), 2 * kPerProducer);
  ASSERT_EQ(received.size(), kCapacity + 2 * kPerProducer);
  std::sort(received.begin(), received.end());
  std::vector<uint64_t> expected = full;
  for (uint64_t p = 1; p <= 2; ++p) {
    const std::vector<uint64_t> values = Iota(p << 32, kPerProducer);
    expected.insert(expected.end(), values.begin(), values.end());
  }
  EXPECT_EQ(received, expected);
}

TEST(PushSourceTest, FourProducersOneConsumerLoseAndReorderNothing) {
  constexpr size_t kProducers = 4;
  constexpr uint64_t kPerProducer = 50000;
  PushSource source(64);
  std::vector<std::thread> producers;
  for (uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&source, p] {
      Xoshiro256 rng(p + 1);
      std::vector<uint64_t> batch;
      uint64_t seq = 0;
      while (seq < kPerProducer) {
        const uint64_t n =
            std::min<uint64_t>(1 + rng() % 200, kPerProducer - seq);
        batch.clear();
        for (uint64_t i = 0; i < n; ++i) batch.push_back((p << 32) | seq++);
        ASSERT_EQ(source.Push(batch.data(), batch.size()), batch.size());
      }
    });
  }

  // The consumer reads to the end of stream, which comes once every
  // producer is done.
  std::thread closer([&] {
    for (std::thread& t : producers) t.join();
    source.Close();
  });
  std::vector<uint64_t> next(kProducers, 0);
  const bool finished = FinishesWithin(seconds(60), source, [&] {
    Xoshiro256 rng(99);
    std::vector<uint64_t> out(300);
    while (const size_t n = source.NextChunk(out.data(), 1 + rng() % 300)) {
      for (size_t i = 0; i < n; ++i) {
        const uint64_t p = out[i] >> 32;
        ASSERT_LT(p, kProducers);
        ASSERT_EQ(out[i] & 0xffffffffu, next[p])
            << "producer " << p << " lost, duplicated or reordered a tuple";
        ++next[p];
      }
    }
  });
  closer.join();
  ASSERT_TRUE(finished);
  for (uint64_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next[p], kPerProducer) << "producer " << p;
  }
  EXPECT_EQ(source.pushed(), kProducers * kPerProducer);
}

}  // namespace
}  // namespace sketchsample
