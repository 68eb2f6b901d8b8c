// Concurrency stress tests for the multi-threaded ingest path, exercised
// under ThreadSanitizer by the `tsan` preset/CI job (they also run — and
// assert bit-exactness — in the regular suites).
//
// What is hammered, and why:
//   * ShardEngine's worker partials are copies of one prototype sketch and
//     share its immutable ξ/hash state via shared_ptr-const; a stray
//     mutable member in any ξ family would be a silent race that output
//     statistics cannot reveal (the paper's variance formulas assume exact
//     sign evaluations).
//   * Concurrent Merge() reductions: disjoint-pair tree merges are the
//     pattern distributed aggregation uses; they are race-free only while
//     sketch copies share no mutable state.
//   * The metrics registry is written from every instrumented hot path at
//     once; counters must stay coherent under concurrent Add/snapshot/
//     enable-toggle traffic.
// lint:allow-file(raw-atomic-confined): TSan stress harness driving real
// threads; raw atomics here are harness coordination, and TSan (not the
// model checker) is the oracle for this tier.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/prng/xi.h"
#include "src/sketch/fagms.h"
#include "src/sketch/sketch.h"
#include "src/stream/checkpoint.h"
#include "src/stream/shard_engine.h"
#include "src/stream/shed_controller.h"
#include "src/stream/source.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"

namespace sketchsample {
namespace {

std::vector<uint64_t> MakeStream(size_t n, uint64_t seed, uint64_t domain) {
  std::vector<uint64_t> stream(n);
  Xoshiro256 rng(seed);
  for (auto& key : stream) key = rng.NextBounded(domain);
  return stream;
}

// Every ξ scheme's const evaluation path runs concurrently inside the
// engine's eight worker lanes (a 2-chunk ring keeps them all busy at
// once); a data race in any family (e.g. an accidentally cached
// intermediate) trips TSan here and breaks bit-exactness below.
TEST(ConcurrencyStressTest, ParallelBuildMatchesSerialForEveryScheme) {
  const std::vector<uint64_t> stream = MakeStream(1 << 15, 42, 1 << 20);
  for (XiScheme scheme : {XiScheme::kEh3, XiScheme::kBch3, XiScheme::kBch5,
                          XiScheme::kCw2, XiScheme::kCw4}) {
    SketchParams params;
    params.rows = 5;
    params.buckets = 512;
    params.scheme = scheme;
    params.seed = 7;
    FagmsSketch serial(params);
    serial.UpdateBatch(stream);

    ShardEngineOptions opts;
    opts.shards = 8;
    opts.queue_chunks = 2;
    ShardEngine<FagmsSketch> engine(FagmsSketch(params), opts);
    VectorSource source(stream);
    engine.Run(source);
    EXPECT_EQ(serial.counters(), engine.merged().counters())
        << "scheme " << static_cast<int>(scheme);
  }
}

// Many worker shards update private counters while reader threads
// concurrently query a master copy sharing the same ξ/hash state: readers
// must never observe (or cause) writes in the shared immutable part.
TEST(ConcurrencyStressTest, ShardWritersWithConcurrentSharedStateReaders) {
  constexpr size_t kShards = 6;
  constexpr size_t kReaders = 3;
  constexpr size_t kKeysPerShard = 1 << 13;

  SketchParams params;
  params.rows = 3;
  params.buckets = 256;
  params.scheme = XiScheme::kCw4;
  params.seed = 11;

  FagmsSketch master(params);
  master.UpdateBatch(MakeStream(1 << 10, 5, 1 << 16));

  std::vector<FagmsSketch> shards(kShards, master);
  std::vector<std::vector<uint64_t>> streams;
  streams.reserve(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    streams.push_back(MakeStream(kKeysPerShard, 100 + s, 1 << 16));
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&master, &stop, r] {
      double sink = 0;
      uint64_t key = r;
      while (!stop.load(std::memory_order_acquire)) {
        sink += master.EstimateSelfJoin();
        sink += master.EstimateFrequency(key++);
      }
      EXPECT_TRUE(sink == sink);  // consume, and reject NaN
    });
  }

  std::vector<std::thread> writers;
  writers.reserve(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    writers.emplace_back(
        [&shards, &streams, s] { shards[s].UpdateBatch(streams[s]); });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  // Bit-exactness: each shard started as a copy of the master (counters
  // U0) and appended its own stream, so it must equal a serial build of
  // U0 + stream_s — any divergence means the "shared immutable ξ state"
  // contract was violated somewhere under the concurrent traffic above.
  for (size_t s = 0; s < kShards; ++s) {
    FagmsSketch expected(params);
    expected.UpdateBatch(MakeStream(1 << 10, 5, 1 << 16));
    expected.UpdateBatch(streams[s]);
    EXPECT_EQ(shards[s].counters(), expected.counters()) << "shard " << s;
  }
}

// Disjoint-pair tree reduction: rounds of concurrent Merge() calls on
// non-overlapping sketch pairs, the way a distributed aggregator combines
// per-node sketches. Result must equal the serial left fold.
TEST(ConcurrencyStressTest, ConcurrentTreeMergeMatchesSerialFold) {
  constexpr size_t kLeaves = 16;  // power of two
  constexpr size_t kKeysPerLeaf = 1 << 12;

  SketchParams params;
  params.rows = 4;
  params.buckets = 128;
  params.scheme = XiScheme::kEh3;
  params.seed = 3;

  const FagmsSketch master(params);
  std::vector<FagmsSketch> leaves(kLeaves, master);
  std::vector<std::vector<uint64_t>> streams;
  streams.reserve(kLeaves);
  for (size_t i = 0; i < kLeaves; ++i) {
    streams.push_back(MakeStream(kKeysPerLeaf, 1000 + i, 1 << 18));
  }
  {
    std::vector<std::thread> builders;
    builders.reserve(kLeaves);
    for (size_t i = 0; i < kLeaves; ++i) {
      builders.emplace_back(
          [&leaves, &streams, i] { leaves[i].UpdateBatch(streams[i]); });
    }
    for (auto& b : builders) b.join();
  }

  for (size_t stride = 1; stride < kLeaves; stride *= 2) {
    std::vector<std::thread> mergers;
    for (size_t i = 0; i + stride < kLeaves; i += 2 * stride) {
      mergers.emplace_back(
          [&leaves, i, stride] { leaves[i].Merge(leaves[i + stride]); });
    }
    for (auto& m : mergers) m.join();
  }

  FagmsSketch serial(params);
  for (size_t i = 0; i < kLeaves; ++i) serial.UpdateBatch(streams[i]);
  EXPECT_EQ(serial.counters(), leaves.front().counters());
}

// The registry takes concurrent Add() traffic from instrumented hot paths,
// snapshot reads, first-use registrations, and enable toggles all at once.
TEST(ConcurrencyStressTest, MetricsRegistryUnderConcurrentTraffic) {
  constexpr size_t kWriters = 6;
  constexpr uint64_t kIters = 20000;

  const bool was_enabled = metrics::Enabled();
  metrics::SetEnabled(true);
  metrics::Registry& registry = metrics::Registry::Global();
  registry.GetCounter("stress.exact").Reset();

  std::atomic<bool> stop{false};
  std::thread snapshotter([&registry, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const JsonValue snapshot = registry.ToJson();
      ASSERT_TRUE(snapshot.is_object());
      (void)registry.Counters();
      (void)registry.Timers();
    }
  });
  std::thread toggler([&stop] {
    // Flipping the global switch mid-run is documented as safe; hot paths
    // must keep their load+branch coherent while it changes.
    bool on = true;
    while (!stop.load(std::memory_order_acquire)) {
      metrics::SetEnabled(on = !on);
      std::this_thread::yield();
    }
    metrics::SetEnabled(true);
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry, w] {
      // Exact counter: bypasses the enabled() gate, so the final count is
      // deterministic regardless of the toggler.
      metrics::Counter& exact = registry.GetCounter("stress.exact");
      for (uint64_t i = 0; i < kIters; ++i) {
        exact.Add(1);
        SKETCHSAMPLE_METRIC_INC("stress.gated");
        // First-use registration from several threads at once.
        registry.GetCounter("stress.lane." + std::to_string(i % 4 + w % 2))
            .Add(1);
        if (i % 1024 == 0) {
          SKETCHSAMPLE_METRIC_SCOPED_TIMER("stress.timer");
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  snapshotter.join();
  toggler.join();

  EXPECT_EQ(registry.GetCounter("stress.exact").Get(), kWriters * kIters);
  registry.ResetAll();
  EXPECT_EQ(registry.GetCounter("stress.exact").Get(), 0u);
  metrics::SetEnabled(was_enabled);
}

// --- Sharded ingest engine (src/stream/shard_engine.h) ------------------

SketchParams ShardEngineParams() {
  SketchParams params;
  params.rows = 3;
  params.buckets = 256;
  params.seed = 11;
  return params;
}

// Router, four workers, and the merge stage all running flat out with a
// deliberately tiny ring (capacity 2), so every buffer handoff crosses the
// full/empty boundaries where SPSC publication bugs live. The shards=1
// reference makes any race that corrupts data visible as a counter
// mismatch; TSan sees the access pattern itself.
TEST(ConcurrencyStressTest, ShardEngineRouterWorkersMergerUnderLoad) {
  const std::vector<uint64_t> stream = MakeStream(1 << 16, 21, 1 << 12);
  const FagmsSketch proto{ShardEngineParams()};

  ShardEngineOptions opts;
  opts.shards = 1;
  opts.shed_p = 0.6;
  opts.seed = 99;
  opts.chunk_tuples = 128;
  opts.queue_chunks = 2;
  ShardEngine<FagmsSketch> reference(proto, opts);
  {
    VectorSource source(stream);
    reference.Run(source);
  }

  opts.shards = 4;
  ShardEngine<FagmsSketch> engine(proto, opts);
  VectorSource source(stream);
  const ShardEngineStats stats = engine.Run(source);
  EXPECT_TRUE(stats.ended);
  EXPECT_EQ(engine.total_kept(), reference.total_kept());
  EXPECT_EQ(engine.merged().counters(), reference.merged().counters());
}

// A shed retarget (controller tick) racing workers that are still draining
// chunks routed at the old rate, with rings running full the whole time.
// Wall-clock mode, so the ring congestion discounts the controller's
// capacity. The result is scheduling-dependent by design; the assertions
// are the invariants that must hold under any interleaving.
TEST(ConcurrencyStressTest, ShardEngineShedRetargetRacingFullRing) {
  const std::vector<uint64_t> stream = MakeStream(1 << 16, 23, 1 << 12);

  ShedControllerOptions copts;
  copts.min_p = 0.05;
  // Far below offered at any plausible ingest rate: constant overload.
  copts.target_tps = 10000;
  copts.window_tuples = 4096;
  ShedController controller(copts);

  ShardEngineOptions opts;
  opts.shards = 4;
  opts.seed = 101;
  opts.chunk_tuples = 128;
  opts.queue_chunks = 2;
  opts.controller = &controller;
  ShardEngine<FagmsSketch> engine(FagmsSketch(ShardEngineParams()), opts);
  VectorSource source(stream);
  const ShardEngineStats stats = engine.Run(source);

  EXPECT_TRUE(stats.ended);
  EXPECT_EQ(stats.tuples, stream.size());
  EXPECT_GT(stats.windows, 0u);
  EXPECT_LE(engine.total_kept(), engine.total_seen());
  EXPECT_GE(engine.p(), copts.min_p);
  EXPECT_LT(engine.p(), 1.0);  // the overload really did force shedding
  uint64_t shard_sum = 0;
  for (uint64_t kept : stats.shard_kept) shard_sum += kept;
  EXPECT_EQ(shard_sum, stats.kept);
}

// Checkpoint snapshots taken while ingest is in full flight: the quiesce
// barrier must publish every worker's partial state to the router before
// serialization reads it (TSan validates the happens-before edge), and the
// snapshots must be good enough to resume bit-exactly.
TEST(ConcurrencyStressTest, ShardEngineCheckpointSnapshotMidIngest) {
  const std::vector<uint64_t> stream = MakeStream(1 << 16, 27, 1 << 12);
  const FagmsSketch proto{ShardEngineParams()};

  ShardEngineOptions opts;
  opts.shards = 4;
  opts.shed_p = 0.5;
  opts.seed = 103;
  opts.chunk_tuples = 128;
  opts.queue_chunks = 2;
  ShardEngine<FagmsSketch> reference(proto, opts);
  {
    VectorSource source(stream);
    reference.Run(source);
  }

  LatestCheckpointSink sink;
  ShardEngineOptions kill = opts;
  kill.checkpoint_sink = &sink;
  kill.checkpoint_every = 3000;
  kill.max_tuples = 30000;
  ShardEngine<FagmsSketch> killed(proto, kill);
  {
    VectorSource source(stream);
    const ShardEngineStats stats = killed.Run(source);
    EXPECT_EQ(stats.checkpoints, 10u);
  }

  ShardEngineOptions resume = opts;
  resume.shards = 2;
  ShardEngine<FagmsSketch> resumed(proto, resume);
  VectorSource source(stream);
  resumed.Restore(DeserializeCheckpoint(sink.bytes()), source);
  resumed.Run(source);
  EXPECT_EQ(resumed.total_kept(), reference.total_kept());
  EXPECT_EQ(resumed.merged().counters(), reference.merged().counters());
}

}  // namespace
}  // namespace sketchsample
