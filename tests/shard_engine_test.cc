// Tests for the sharded multi-threaded ingest engine
// (src/stream/shard_engine.h). The load-bearing claims:
//
//  - Determinism: the same root seed produces bit-identical merged sketches
//    and estimates at every shard count and chunk size (positional
//    shedding + exact counter merges).
//  - Recovery: kill-and-resume from a shard-section checkpoint is
//    bit-exact, including resumes at a *different* shard count, and with
//    the adaptive controller in the loop (fixed-budget mode, which ring
//    congestion never perturbs).
//  - Fault accounting: per-shard fault injection keeps the global
//    stream.faults.injected counter the exact sum of per-shard counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/sampling/bernoulli.h"
#include "src/sketch/agms.h"
#include "src/sketch/fagms.h"
#include "src/sketch/fastcount.h"
#include "src/sketch/kll.h"
#include "src/sketch/kmv.h"
#include "src/stream/checkpoint.h"
#include "src/stream/faults.h"
#include "src/stream/shard_engine.h"
#include "src/stream/shed_controller.h"
#include "src/stream/source.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"

namespace sketchsample {
namespace {

constexpr uint64_t kRootSeed = 42;
constexpr uint64_t kSketchSeed = 33;

std::vector<uint64_t> MakeStream(size_t n, uint64_t seed, uint64_t domain) {
  Xoshiro256 rng(seed);
  std::vector<uint64_t> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) values.push_back(rng() % domain);
  return values;
}

SketchParams SmallParams() {
  SketchParams params;
  params.rows = 3;
  params.buckets = 128;
  params.seed = kSketchSeed;
  return params;
}

template <typename SketchT>
ShardEngineStats RunEngine(ShardEngine<SketchT>& engine,
                           const std::vector<uint64_t>& values) {
  VectorSource source(values);
  return engine.Run(source);
}

// --- Determinism matrix -------------------------------------------------

// For each sketch family: run the stream through 1, 2, 3, and 8 shards
// (and one deliberately odd chunk size) and demand bit-identical merged
// counters against the shards=1 reference.
template <typename SketchT, typename EqualFn>
void ExpectShardCountInvariance(const SketchT& proto, EqualFn equal) {
  const std::vector<uint64_t> values = MakeStream(50000, 7, 1000);
  ShardEngineOptions base;
  base.shed_p = 0.3;
  base.seed = kRootSeed;
  base.chunk_tuples = 512;

  ShardEngineOptions reference_opts = base;
  reference_opts.shards = 1;
  ShardEngine<SketchT> reference(proto, reference_opts);
  RunEngine(reference, values);

  for (const size_t shards : {2u, 3u, 8u}) {
    ShardEngineOptions opts = base;
    opts.shards = shards;
    ShardEngine<SketchT> engine(proto, opts);
    const ShardEngineStats stats = RunEngine(engine, values);
    EXPECT_EQ(engine.total_seen(), reference.total_seen()) << shards;
    EXPECT_EQ(engine.total_kept(), reference.total_kept()) << shards;
    EXPECT_EQ(stats.merges, shards);
    equal(reference.merged(), engine.merged(), shards);
  }

  // Chunk size must not matter either: position, not batching, decides.
  ShardEngineOptions odd = base;
  odd.shards = 3;
  odd.chunk_tuples = 97;
  ShardEngine<SketchT> engine(proto, odd);
  RunEngine(engine, values);
  EXPECT_EQ(engine.total_kept(), reference.total_kept());
  equal(reference.merged(), engine.merged(), 97u);
}

template <typename SketchT>
void ExpectCountersEqual(const SketchT& a, const SketchT& b, size_t tag) {
  const auto& lhs = a.counters();
  const auto& rhs = b.counters();
  ASSERT_EQ(lhs.size(), rhs.size()) << tag;
  for (size_t i = 0; i < lhs.size(); ++i) {
    ASSERT_EQ(lhs[i], rhs[i]) << "counter " << i << " tag " << tag;
  }
}

TEST(ShardEngineTest, AgmsMergedCountersInvariantAcrossShardCounts) {
  SketchParams params;
  params.rows = 64;
  params.seed = kSketchSeed;
  ExpectShardCountInvariance(AgmsSketch(params),
                             ExpectCountersEqual<AgmsSketch>);
}

TEST(ShardEngineTest, FagmsMergedCountersInvariantAcrossShardCounts) {
  ExpectShardCountInvariance(FagmsSketch(SmallParams()),
                             ExpectCountersEqual<FagmsSketch>);
}

TEST(ShardEngineTest, FastCountMergedCountersInvariantAcrossShardCounts) {
  ExpectShardCountInvariance(FastCountSketch(SmallParams()),
                             ExpectCountersEqual<FastCountSketch>);
}

TEST(ShardEngineTest, KmvMergedMinimaInvariantAcrossShardCounts) {
  ExpectShardCountInvariance(
      KmvSketch(64, kSketchSeed),
      [](const KmvSketch& a, const KmvSketch& b, size_t tag) {
        ASSERT_TRUE(a.minima() == b.minima()) << tag;
        ASSERT_EQ(a.EstimateDistinct(), b.EstimateDistinct()) << tag;
      });
}

// Streams shorter than one chunk per lane, the empty stream, and a shard
// count of 0 (clamped to one lane) still give the serial sketch exactly.
TEST(ShardEngineTest, TinyStreamsMatchSerialAtAnyShardCount) {
  for (const std::vector<uint64_t>& values :
       {std::vector<uint64_t>{}, std::vector<uint64_t>{1, 2, 3}}) {
    FagmsSketch serial(SmallParams());
    serial.UpdateBatch(values);
    for (const size_t shards : {0u, 1u, 16u}) {
      ShardEngineOptions opts;
      opts.shards = shards;
      ShardEngine<FagmsSketch> engine(FagmsSketch(SmallParams()), opts);
      const ShardEngineStats stats = RunEngine(engine, values);
      EXPECT_TRUE(stats.ended) << shards;
      EXPECT_EQ(stats.merges, shards == 0 ? 1u : shards);
      EXPECT_EQ(engine.total_kept(), values.size()) << shards;
      ExpectCountersEqual(serial, engine.merged(), shards);
    }
  }
}

// The engine's kept set must be exactly what the positional sampler says:
// a sequential reference applying Keep(i) to every absolute position
// reproduces the merged sketch bit-for-bit.
TEST(ShardEngineTest, MatchesSequentialPositionalReference) {
  const std::vector<uint64_t> values = MakeStream(20000, 11, 500);
  const double p = 0.4;

  FagmsSketch reference(SmallParams());
  const PositionalBernoulliSampler sampler(p, kRootSeed);
  uint64_t reference_kept = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (sampler.Keep(i)) {
      reference.Update(values[i]);
      ++reference_kept;
    }
  }

  ShardEngineOptions opts;
  opts.shards = 4;
  opts.shed_p = p;
  opts.seed = kRootSeed;
  opts.chunk_tuples = 333;
  ShardEngine<FagmsSketch> engine(FagmsSketch(SmallParams()), opts);
  RunEngine(engine, values);

  EXPECT_EQ(engine.total_kept(), reference_kept);
  ExpectCountersEqual(reference, engine.merged(), 0);
}

// --- Checkpoint / recovery ---------------------------------------------

TEST(ShardEngineTest, KillAndResumeAtDifferentShardCountIsBitExact) {
  const std::vector<uint64_t> values = MakeStream(30000, 3, 2000);
  const FagmsSketch proto{SmallParams()};

  ShardEngineOptions opts;
  opts.shards = 3;
  opts.shed_p = 0.5;
  opts.seed = kRootSeed;
  opts.chunk_tuples = 256;

  ShardEngine<FagmsSketch> uninterrupted(proto, opts);
  RunEngine(uninterrupted, values);

  // Kill: stop at 12000 tuples, checkpointing every 4000 (the router caps
  // pulls at checkpoint boundaries, so the last checkpoint lands at
  // exactly 12000).
  LatestCheckpointSink sink;
  ShardEngineOptions kill = opts;
  kill.checkpoint_sink = &sink;
  kill.checkpoint_every = 4000;
  kill.max_tuples = 12000;
  ShardEngine<FagmsSketch> killed(proto, kill);
  const ShardEngineStats kill_stats = RunEngine(killed, values);
  EXPECT_EQ(kill_stats.checkpoints, 3u);
  EXPECT_EQ(sink.source_tuples(), 12000u);

  // Resume in a fresh engine with a different shard count and chunk size.
  for (const size_t shards : {1u, 2u, 8u}) {
    ShardEngineOptions resume_opts = opts;
    resume_opts.shards = shards;
    resume_opts.chunk_tuples = 128;
    ShardEngine<FagmsSketch> resumed(proto, resume_opts);
    VectorSource source(values);
    resumed.Restore(DeserializeCheckpoint(sink.bytes()), source);
    EXPECT_EQ(resumed.total_seen(), 12000u);
    resumed.Run(source);

    EXPECT_EQ(resumed.total_seen(), uninterrupted.total_seen()) << shards;
    EXPECT_EQ(resumed.total_kept(), uninterrupted.total_kept()) << shards;
    ExpectCountersEqual(uninterrupted.merged(), resumed.merged(), shards);
    ASSERT_EQ(resumed.merged().EstimateSelfJoin(),
              uninterrupted.merged().EstimateSelfJoin())
        << shards;
  }
}

// A double kill: resume, checkpoint again mid-resume, resume again. The
// restored base must survive the second snapshot (it rides in shard 0's
// entry), so the final state still covers the whole prefix.
TEST(ShardEngineTest, SecondKillAfterResumeStillCoversWholePrefix) {
  const std::vector<uint64_t> values = MakeStream(24000, 5, 1500);
  const FagmsSketch proto{SmallParams()};

  ShardEngineOptions opts;
  opts.shards = 2;
  opts.shed_p = 0.7;
  opts.seed = kRootSeed;
  opts.chunk_tuples = 200;

  ShardEngine<FagmsSketch> uninterrupted(proto, opts);
  RunEngine(uninterrupted, values);

  LatestCheckpointSink sink;
  ShardEngineOptions kill1 = opts;
  kill1.checkpoint_sink = &sink;
  kill1.checkpoint_every = 4000;
  kill1.max_tuples = 8000;
  ShardEngine<FagmsSketch> first(proto, kill1);
  RunEngine(first, values);

  ShardEngineOptions kill2 = opts;
  kill2.shards = 3;
  kill2.checkpoint_sink = &sink;
  kill2.checkpoint_every = 4000;
  kill2.max_tuples = 8000;  // runs 8000..16000, checkpoints at 12000, 16000
  ShardEngine<FagmsSketch> second(proto, kill2);
  {
    VectorSource source(values);
    second.Restore(DeserializeCheckpoint(sink.bytes()), source);
    second.Run(source);
  }
  EXPECT_EQ(sink.source_tuples(), 16000u);

  ShardEngineOptions resume_opts = opts;
  resume_opts.shards = 4;
  ShardEngine<FagmsSketch> final_engine(proto, resume_opts);
  VectorSource source(values);
  final_engine.Restore(DeserializeCheckpoint(sink.bytes()), source);
  final_engine.Run(source);

  EXPECT_EQ(final_engine.total_seen(), uninterrupted.total_seen());
  EXPECT_EQ(final_engine.total_kept(), uninterrupted.total_kept());
  ExpectCountersEqual(uninterrupted.merged(), final_engine.merged(), 0);
}

// Adaptive mode with the deterministic fixed budget: the p trajectory is a
// pure function of the realized counts, which are partition-independent —
// so shard counts must not change the result, and kill-and-resume must
// replay the same control decisions.
TEST(ShardEngineTest, AdaptiveFixedBudgetInvariantAcrossShardCounts) {
  const std::vector<uint64_t> values = MakeStream(40000, 13, 3000);
  const FagmsSketch proto{SmallParams()};

  ShedControllerOptions copts;
  copts.initial_p = 1.0;
  copts.min_p = 0.05;
  copts.capacity_per_window = 2500;
  copts.window_tuples = 4096;

  ShedController reference_controller(copts);
  ShardEngineOptions ref_opts;
  ref_opts.shards = 1;
  ref_opts.seed = kRootSeed;
  ref_opts.chunk_tuples = 512;
  ref_opts.controller = &reference_controller;
  ShardEngine<FagmsSketch> reference(proto, ref_opts);
  const ShardEngineStats ref_stats = RunEngine(reference, values);
  EXPECT_GT(ref_stats.windows, 0u);
  EXPECT_LT(reference.p(), 1.0);  // the budget forces shedding

  for (const size_t shards : {2u, 4u}) {
    ShedController controller(copts);
    ShardEngineOptions opts = ref_opts;
    opts.shards = shards;
    opts.controller = &controller;
    ShardEngine<FagmsSketch> engine(proto, opts);
    const ShardEngineStats stats = RunEngine(engine, values);
    EXPECT_EQ(stats.windows, ref_stats.windows) << shards;
    EXPECT_EQ(engine.p(), reference.p()) << shards;
    EXPECT_EQ(engine.total_kept(), reference.total_kept()) << shards;
    ExpectCountersEqual(reference.merged(), engine.merged(), shards);
  }
}

TEST(ShardEngineTest, AdaptiveKillAndResumeReplaysControlDecisions) {
  const std::vector<uint64_t> values = MakeStream(40000, 17, 3000);
  const FagmsSketch proto{SmallParams()};

  ShedControllerOptions copts;
  copts.capacity_per_window = 2500;
  copts.window_tuples = 4096;

  auto make_opts = [&](ShedController* controller) {
    ShardEngineOptions opts;
    opts.shards = 3;
    opts.seed = kRootSeed;
    opts.chunk_tuples = 512;
    opts.controller = controller;
    return opts;
  };

  ShedController uninterrupted_controller(copts);
  ShardEngine<FagmsSketch> uninterrupted(
      proto, make_opts(&uninterrupted_controller));
  RunEngine(uninterrupted, values);

  LatestCheckpointSink sink;
  ShedController killed_controller(copts);
  ShardEngineOptions kill = make_opts(&killed_controller);
  kill.checkpoint_sink = &sink;
  kill.checkpoint_every = 6000;  // deliberately misaligned with windows
  kill.max_tuples = 18000;
  ShardEngine<FagmsSketch> killed(proto, kill);
  RunEngine(killed, values);
  EXPECT_EQ(sink.source_tuples(), 18000u);

  ShedController resumed_controller(copts);
  ShardEngineOptions resume_opts = make_opts(&resumed_controller);
  resume_opts.shards = 5;
  ShardEngine<FagmsSketch> resumed(proto, resume_opts);
  VectorSource source(values);
  resumed.Restore(DeserializeCheckpoint(sink.bytes()), source);
  EXPECT_EQ(resumed.p(), killed.p());  // controller p reinstated
  resumed.Run(source);

  EXPECT_EQ(resumed.p(), uninterrupted.p());
  EXPECT_EQ(resumed_controller.windows(), uninterrupted_controller.windows());
  EXPECT_EQ(resumed.total_kept(), uninterrupted.total_kept());
  ExpectCountersEqual(uninterrupted.merged(), resumed.merged(), 0);
}

// A fixed per-window budget is never discounted by ring congestion, so a
// budget run is a pure function of the stream even when a slow sketch keeps
// a tiny ring full: it must match, decision for decision, the same run
// through a ring large enough that the router never waits.
TEST(ShardEngineTest, BudgetModeIgnoresRingCongestion) {
  const std::vector<uint64_t> values = MakeStream(40000, 37, 3000);
  SketchParams params;
  params.rows = 256;  // slow per-tuple update: the worker trails the router
  params.seed = kSketchSeed;
  const AgmsSketch proto(params);

  ShedControllerOptions copts;
  copts.min_p = 0.05;
  copts.capacity_per_window = 2000;
  copts.window_tuples = 8192;  // 32 chunks against a 2-chunk ring

  auto run = [&](size_t queue_chunks, ShardEngineStats* stats) {
    ShedController controller(copts);
    ShardEngineOptions opts;
    opts.shards = 1;
    opts.seed = kRootSeed;
    opts.chunk_tuples = 256;
    opts.queue_chunks = queue_chunks;
    opts.controller = &controller;
    auto engine = std::make_unique<ShardEngine<AgmsSketch>>(proto, opts);
    *stats = RunEngine(*engine, values);
    return engine;
  };

  ShardEngineStats tiny_stats;
  const auto tiny = run(2, &tiny_stats);
  ShardEngineStats roomy_stats;
  const auto roomy = run(64, &roomy_stats);  // holds a whole window

  EXPECT_GT(tiny_stats.ring_full_retries, 0u);
  EXPECT_EQ(roomy_stats.ring_full_retries, 0u);
  EXPECT_LT(roomy->p(), 1.0);  // the budget forces shedding
  EXPECT_EQ(tiny->p(), roomy->p());
  EXPECT_EQ(tiny->total_kept(), roomy->total_kept());
}

// A second Run on the same engine continues from where the first stopped —
// the same contract as resuming from a checkpoint at that boundary.
TEST(ShardEngineTest, ReRunContinuesWhereTheFirstStopped) {
  const std::vector<uint64_t> values = MakeStream(20000, 19, 1000);
  const FagmsSketch proto{SmallParams()};

  ShardEngineOptions opts;
  opts.shards = 2;
  opts.shed_p = 0.6;
  opts.seed = kRootSeed;
  ShardEngine<FagmsSketch> reference(proto, opts);
  RunEngine(reference, values);

  ShardEngineOptions stop_opts = opts;
  stop_opts.max_tuples = 7000;
  ShardEngine<FagmsSketch> engine(proto, stop_opts);
  VectorSource source(values);
  const ShardEngineStats first = engine.Run(source);
  EXPECT_EQ(first.tuples, 7000u);
  EXPECT_FALSE(first.ended);
  // max_tuples caps each run, so pumping the rest takes two more runs
  // (7000 + 7000 + 6000 = 20000).
  const ShardEngineStats second = engine.Run(source);
  EXPECT_EQ(second.tuples, 7000u);
  const ShardEngineStats third = engine.Run(source);
  EXPECT_TRUE(third.ended);

  EXPECT_EQ(engine.total_seen(), reference.total_seen());
  EXPECT_EQ(engine.total_kept(), reference.total_kept());
  ExpectCountersEqual(reference.merged(), engine.merged(), 0);
}

// --- Restore validation -------------------------------------------------

TEST(ShardEngineTest, RestoreRejectsCheckpointWithoutShardSection) {
  PipelineCheckpoint cp;
  cp.source_tuples = 10;
  ShardEngine<FagmsSketch> engine(FagmsSketch(SmallParams()),
                                  ShardEngineOptions{});
  VectorSource source(MakeStream(100, 1, 10));
  EXPECT_THROW(engine.Restore(cp, source), CheckpointError);
}

TEST(ShardEngineTest, RestoreRejectsIncompatibleShardSketch) {
  SketchParams other = SmallParams();
  other.seed = kSketchSeed + 1;  // different hash seed: incompatible
  PipelineCheckpoint cp;
  cp.source_tuples = 1;
  cp.has_shards = true;
  ShardCheckpointState shard;
  shard.seen = 1;
  shard.kept = 1;
  shard.sketch = SerializeSketch(FagmsSketch(other));
  cp.shards.push_back(shard);

  ShardEngine<FagmsSketch> engine(FagmsSketch(SmallParams()),
                                  ShardEngineOptions{});
  VectorSource source(MakeStream(100, 1, 10));
  EXPECT_THROW(engine.Restore(cp, source), CheckpointError);
  EXPECT_EQ(engine.total_seen(), 0u);  // failed restore must not half-apply
}

TEST(ShardEngineTest, RestoreRejectsShardCountsNotCoveringPosition) {
  PipelineCheckpoint cp;
  cp.source_tuples = 100;
  cp.has_shards = true;
  ShardCheckpointState shard;
  shard.seen = 60;  // 40 tuples unaccounted for
  cp.shards.push_back(shard);

  ShardEngine<FagmsSketch> engine(FagmsSketch(SmallParams()),
                                  ShardEngineOptions{});
  VectorSource source(MakeStream(200, 1, 10));
  EXPECT_THROW(engine.Restore(cp, source), CheckpointError);
}

TEST(ShardEngineTest, RestoreRejectsSourceShorterThanCheckpoint) {
  const std::vector<uint64_t> values = MakeStream(5000, 23, 100);
  LatestCheckpointSink sink;
  ShardEngineOptions opts;
  opts.shards = 2;
  opts.seed = kRootSeed;
  opts.checkpoint_sink = &sink;
  opts.checkpoint_every = 2000;
  ShardEngine<FagmsSketch> engine(FagmsSketch(SmallParams()), opts);
  RunEngine(engine, values);

  ShardEngine<FagmsSketch> resumed(FagmsSketch(SmallParams()),
                                   ShardEngineOptions{});
  VectorSource short_source(MakeStream(1000, 23, 100));
  EXPECT_THROW(
      resumed.Restore(DeserializeCheckpoint(sink.bytes()), short_source),
      CheckpointError);
}

// --- Fault accounting ---------------------------------------------------

// Each worker owns an independent fault stream and a per-shard counter;
// the global stream.faults.injected counter must stay the exact sum of the
// per-shard ones, and both must match the operators' own counts.
TEST(ShardEngineTest, PerShardFaultCountsSumToGlobalCounter) {
  const std::vector<uint64_t> values = MakeStream(30000, 29, 1000);

  FaultProfile profile;
  profile.corrupt_prob = 0.01;
  profile.duplicate_prob = 0.01;
  profile.reorder_prob = 0.005;

  metrics::SetEnabled(true);
  metrics::Registry& registry = metrics::Registry::Global();
  const uint64_t global_before =
      registry.GetCounter("stream.faults.injected").Get();
  const size_t shards = 4;
  std::vector<uint64_t> shard_before;
  for (size_t s = 0; s < shards; ++s) {
    shard_before.push_back(
        registry.GetCounter("stream.faults.injected.shard" + std::to_string(s))
            .Get());
  }

  ShardEngineOptions opts;
  opts.shards = shards;
  opts.seed = kRootSeed;
  opts.fault_profile = &profile;
  opts.fault_seed = 77;
  ShardEngine<FagmsSketch> engine(FagmsSketch(SmallParams()), opts);
  const ShardEngineStats stats = RunEngine(engine, values);
  metrics::SetEnabled(false);

  ASSERT_EQ(stats.shard_faults.size(), shards);
  uint64_t fault_sum = 0;
  uint64_t nonzero_shards = 0;
  for (size_t s = 0; s < shards; ++s) {
    const uint64_t shard_delta =
        registry.GetCounter("stream.faults.injected.shard" + std::to_string(s))
            .Get() -
        shard_before[s];
    EXPECT_EQ(shard_delta, stats.shard_faults[s]) << "shard " << s;
    fault_sum += stats.shard_faults[s];
    if (stats.shard_faults[s] > 0) ++nonzero_shards;
  }
  EXPECT_GT(fault_sum, 0u);
  EXPECT_GT(nonzero_shards, 1u);  // faults really are spread across shards
  const uint64_t global_delta =
      registry.GetCounter("stream.faults.injected").Get() - global_before;
  EXPECT_EQ(global_delta, fault_sum);
}

// --- Stats accounting ---------------------------------------------------

TEST(ShardEngineTest, PerShardStatsSumToTotals) {
  const std::vector<uint64_t> values = MakeStream(10000, 31, 500);
  ShardEngineOptions opts;
  opts.shards = 3;
  opts.shed_p = 0.5;
  opts.seed = kRootSeed;
  opts.chunk_tuples = 100;
  ShardEngine<FagmsSketch> engine(FagmsSketch(SmallParams()), opts);
  const ShardEngineStats stats = RunEngine(engine, values);

  EXPECT_TRUE(stats.ended);
  EXPECT_EQ(stats.tuples, 10000u);
  ASSERT_EQ(stats.shard_tuples.size(), 3u);
  ASSERT_EQ(stats.shard_kept.size(), 3u);
  uint64_t tuple_sum = 0;
  uint64_t kept_sum = 0;
  for (size_t s = 0; s < 3; ++s) {
    tuple_sum += stats.shard_tuples[s];
    kept_sum += stats.shard_kept[s];
    EXPECT_GT(stats.shard_tuples[s], 0u) << s;  // round-robin reaches all
  }
  EXPECT_EQ(tuple_sum, stats.tuples);
  EXPECT_EQ(kept_sum, stats.kept);
  EXPECT_EQ(engine.total_kept(), stats.kept);
  EXPECT_EQ(stats.chunks, 100u);
}

// --- Snapshot hook + auxiliary distinct counter -------------------------

class CollectingHook final : public ShardSnapshotHook<FagmsSketch> {
 public:
  void Publish(ShardEngineSnapshot<FagmsSketch> snapshot) override {
    snapshots.push_back(std::move(snapshot));
  }
  std::vector<ShardEngineSnapshot<FagmsSketch>> snapshots;
};

TEST(ShardEngineSnapshotTest, HookPublishesAtPhaseLockedBoundaries) {
  const std::vector<uint64_t> values = MakeStream(10000, 7, 500);
  ShardEngineOptions opts;
  opts.shards = 2;
  opts.shed_p = 0.4;
  opts.seed = kRootSeed;
  opts.chunk_tuples = 512;
  opts.distinct_k = 32;
  ShardEngine<FagmsSketch> engine(FagmsSketch(SmallParams()), opts);
  CollectingHook hook;
  engine.SetSnapshotHook(&hook, 2048);
  const ShardEngineStats stats = RunEngine(engine, values);

  ASSERT_TRUE(stats.ended);
  // Boundaries are phase-locked to absolute offsets: every multiple of
  // 2048, plus the final state when the run stops.
  ASSERT_EQ(hook.snapshots.size(), 5u);
  EXPECT_EQ(stats.snapshots, 5u);
  const uint64_t expected_positions[] = {2048, 4096, 6144, 8192, 10000};
  uint64_t last_kept = 0;
  for (size_t i = 0; i < hook.snapshots.size(); ++i) {
    const ShardEngineSnapshot<FagmsSketch>& snap = hook.snapshots[i];
    EXPECT_EQ(snap.position, expected_positions[i]) << i;
    EXPECT_EQ(snap.sequence, i + 1) << i;
    EXPECT_LE(snap.kept, snap.position) << i;
    EXPECT_GE(snap.kept, last_kept) << i;
    last_kept = snap.kept;
    EXPECT_DOUBLE_EQ(snap.p, 0.4) << i;
    ASSERT_TRUE(snap.distinct.has_value()) << i;
  }
  // The final snapshot is exactly the engine's merged end state.
  const ShardEngineSnapshot<FagmsSketch>& last = hook.snapshots.back();
  EXPECT_EQ(last.kept, engine.total_kept());
  EXPECT_EQ(SerializeSketch(last.sketch), SerializeSketch(engine.merged()));
  ASSERT_TRUE(engine.distinct().has_value());
  EXPECT_EQ(SerializeSketch(*last.distinct),
            SerializeSketch(*engine.distinct()));
}

TEST(ShardEngineSnapshotTest, SnapshotsAreBitExactAcrossShardCounts) {
  const std::vector<uint64_t> values = MakeStream(20000, 13, 1000);
  CollectingHook hooks[2];
  const size_t shard_counts[2] = {1, 3};
  for (int run = 0; run < 2; ++run) {
    ShardEngineOptions opts;
    opts.shards = shard_counts[run];
    opts.shed_p = 0.4;
    opts.seed = kRootSeed;
    opts.chunk_tuples = 512;
    opts.distinct_k = 64;
    ShardEngine<FagmsSketch> engine(FagmsSketch(SmallParams()), opts);
    engine.SetSnapshotHook(&hooks[run], 4096);
    ASSERT_TRUE(RunEngine(engine, values).ended);
  }
  ASSERT_EQ(hooks[0].snapshots.size(), hooks[1].snapshots.size());
  for (size_t i = 0; i < hooks[0].snapshots.size(); ++i) {
    const auto& a = hooks[0].snapshots[i];
    const auto& b = hooks[1].snapshots[i];
    EXPECT_EQ(a.position, b.position) << i;
    EXPECT_EQ(a.kept, b.kept) << i;
    EXPECT_EQ(a.sequence, b.sequence) << i;
    // The published sketch and distinct counter — not just the estimates —
    // must be identical at every boundary, at any shard count.
    EXPECT_EQ(SerializeSketch(a.sketch), SerializeSketch(b.sketch)) << i;
    ASSERT_TRUE(a.distinct.has_value());
    ASSERT_TRUE(b.distinct.has_value());
    EXPECT_EQ(SerializeSketch(*a.distinct), SerializeSketch(*b.distinct))
        << i;
  }
}

TEST(ShardEngineTest, DistinctCounterMatchesDirectKmvOverKeptStream) {
  // With shed_p = 1 every tuple survives, so the engine's distinct counter
  // must equal a KMV built directly over the whole stream with the derived
  // seed — at any shard count.
  const std::vector<uint64_t> values = MakeStream(30000, 17, 2000);
  KmvSketch direct(64, ShardDistinctSeed(kRootSeed));
  for (uint64_t v : values) direct.Update(v);

  for (size_t shards : {size_t{1}, size_t{4}}) {
    ShardEngineOptions opts;
    opts.shards = shards;
    opts.shed_p = 1.0;
    opts.seed = kRootSeed;
    opts.chunk_tuples = 512;
    opts.distinct_k = 64;
    ShardEngine<FagmsSketch> engine(FagmsSketch(SmallParams()), opts);
    ASSERT_TRUE(RunEngine(engine, values).ended);
    ASSERT_TRUE(engine.distinct().has_value()) << shards;
    EXPECT_EQ(SerializeSketch(*engine.distinct()), SerializeSketch(direct))
        << shards;
    EXPECT_DOUBLE_EQ(engine.distinct()->EstimateDistinct(),
                     direct.EstimateDistinct())
        << shards;
  }
}

TEST(ShardEngineTest, RestoreRequiresDistinctBlobsWhenEnabled) {
  // A checkpoint written without distinct state cannot restore into an
  // engine that promises distinct answers — silent loss of the counter
  // would break the service's bit-exactness contract.
  PipelineCheckpoint cp;
  cp.source_tuples = 10;
  cp.has_shards = true;
  ShardCheckpointState shard;
  shard.seen = 10;
  shard.kept = 10;
  shard.sketch = SerializeSketch(FagmsSketch(SmallParams()));
  cp.shards.push_back(shard);

  ShardEngineOptions opts;
  opts.distinct_k = 32;
  ShardEngine<FagmsSketch> engine(FagmsSketch(SmallParams()), opts);
  VectorSource source(MakeStream(100, 1, 10));
  EXPECT_THROW(engine.Restore(cp, source), CheckpointError);
  EXPECT_EQ(engine.total_seen(), 0u);
}

TEST(ShardEngineTest, RestoreRejectsIncompatibleDistinctBlob) {
  // Same shape, different root seed → different derived KMV hash seed; the
  // blob must be rejected, not merged into a silently-wrong union.
  ShardEngineOptions writer_opts;
  writer_opts.distinct_k = 32;
  writer_opts.seed = kRootSeed + 1;
  KmvSketch foreign(32, ShardDistinctSeed(writer_opts.seed));
  foreign.Update(1);

  PipelineCheckpoint cp;
  cp.source_tuples = 1;
  cp.has_shards = true;
  cp.has_shard_distinct = true;
  ShardCheckpointState shard;
  shard.seen = 1;
  shard.kept = 1;
  shard.sketch = SerializeSketch(FagmsSketch(SmallParams()));
  shard.distinct = SerializeSketch(foreign);
  cp.shards.push_back(shard);

  ShardEngineOptions opts;
  opts.distinct_k = 32;
  opts.seed = kRootSeed;
  ShardEngine<FagmsSketch> engine(FagmsSketch(SmallParams()), opts);
  VectorSource source(MakeStream(100, 1, 10));
  EXPECT_THROW(engine.Restore(cp, source), CheckpointError);
}

// --- Companion restore rejection ----------------------------------------

// Every companion the engine checkpoints is checked before anything is
// committed: a missing section, a blob of another k, or a corrupt blob
// throws CheckpointError and leaves the engine exactly as it was.
enum class Companion { kDistinct, kSubpop, kQuantile };
enum class Defect { kMissing, kMismatch, kCorrupt };

class CompanionRestoreRejectionTest
    : public testing::TestWithParam<std::tuple<Companion, Defect>> {};

ShardEngineOptions CompanionOptions() {
  ShardEngineOptions opts;
  opts.shards = 2;
  opts.shed_p = 0.5;
  opts.seed = kRootSeed;
  opts.chunk_tuples = 512;
  opts.distinct_k = 32;
  opts.quantile_k = 16;
  opts.subpop_k = 32;
  return opts;
}

// Applies `defect` to the companion's blobs: every shard's, or the one
// engine-level KLL blob. Corruption hits the last blob, so the loader has
// already accepted the others when it fails.
void Damage(PipelineCheckpoint& cp, Companion companion, Defect defect) {
  const ShardEngineOptions opts = CompanionOptions();
  std::vector<std::vector<uint8_t>*> blobs;
  if (companion == Companion::kQuantile) {
    blobs.push_back(&cp.quantile);
  } else {
    for (ShardCheckpointState& shard : cp.shards) {
      blobs.push_back(companion == Companion::kDistinct ? &shard.distinct
                                                        : &shard.subpop);
    }
  }
  switch (defect) {
    case Defect::kMissing:
      if (companion == Companion::kDistinct) cp.has_shard_distinct = false;
      if (companion == Companion::kSubpop) cp.has_shard_subpop = false;
      for (std::vector<uint8_t>* blob : blobs) blob->clear();
      break;
    case Defect::kMismatch:
      for (std::vector<uint8_t>* blob : blobs) {
        switch (companion) {
          case Companion::kDistinct:
            *blob = SerializeSketch(KmvSketch(
                2 * opts.distinct_k, ShardDistinctSeed(opts.seed)));
            break;
          case Companion::kSubpop:
            *blob = SerializeSketch(KeyedKmvSketch(
                2 * opts.subpop_k, ShardSubpopSeed(opts.seed)));
            break;
          case Companion::kQuantile:
            *blob = SerializeSketch(KllSketch(
                2 * opts.quantile_k, ShardQuantileSeed(opts.seed)));
            break;
        }
      }
      break;
    case Defect::kCorrupt: {
      std::vector<uint8_t>& blob = *blobs.back();
      ASSERT_GT(blob.size(), 16u);
      blob[blob.size() / 2] ^= 0x5a;
      break;
    }
  }
}

TEST_P(CompanionRestoreRejectionTest, RejectsAndCommitsNothing) {
  const auto [companion, defect] = GetParam();
  const std::vector<uint64_t> values = MakeStream(20000, 29, 500);
  LatestCheckpointSink sink;
  ShardEngineOptions writer_opts = CompanionOptions();
  writer_opts.checkpoint_sink = &sink;
  writer_opts.checkpoint_every = 8192;
  ShardEngine<FagmsSketch> writer(FagmsSketch(SmallParams()), writer_opts);
  RunEngine(writer, values);
  PipelineCheckpoint cp = DeserializeCheckpoint(sink.bytes());
  Damage(cp, companion, defect);

  // The engine under test holds state of its own, at another shed rate.
  ShardEngineOptions opts = CompanionOptions();
  opts.shed_p = 0.25;
  ShardEngine<FagmsSketch> engine(FagmsSketch(SmallParams()), opts);
  RunEngine(engine, MakeStream(3000, 31, 500));
  const std::vector<uint8_t> merged = SerializeSketch(engine.merged());
  const std::vector<uint8_t> distinct = SerializeSketch(*engine.distinct());
  const std::vector<uint8_t> quantile = SerializeSketch(*engine.quantile());
  const std::vector<uint8_t> subpop = SerializeSketch(*engine.subpop());
  const uint64_t seen = engine.total_seen();
  const double p = engine.p();

  VectorSource source(values);
  EXPECT_THROW(engine.Restore(cp, source), CheckpointError);
  EXPECT_EQ(SerializeSketch(engine.merged()), merged);
  EXPECT_EQ(SerializeSketch(*engine.distinct()), distinct);
  EXPECT_EQ(SerializeSketch(*engine.quantile()), quantile);
  EXPECT_EQ(SerializeSketch(*engine.subpop()), subpop);
  EXPECT_EQ(engine.total_seen(), seen);
  EXPECT_EQ(engine.p(), p);
}

std::string CompanionCaseName(
    const testing::TestParamInfo<std::tuple<Companion, Defect>>& info) {
  static const char* const kCompanions[] = {"Distinct", "Subpop", "Quantile"};
  static const char* const kDefects[] = {"Missing", "Mismatch", "Corrupt"};
  return std::string(kCompanions[static_cast<int>(std::get<0>(info.param))]) +
         kDefects[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    EveryCompanion, CompanionRestoreRejectionTest,
    testing::Combine(testing::Values(Companion::kDistinct, Companion::kSubpop,
                                     Companion::kQuantile),
                     testing::Values(Defect::kMissing, Defect::kMismatch,
                                     Defect::kCorrupt)),
    CompanionCaseName);

}  // namespace
}  // namespace sketchsample
