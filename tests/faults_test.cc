// Tests for the deterministic fault-injection harness (src/stream/
// faults.h). Every scenario is a pure function of its 64-bit seed; failing
// assertions print the seed so the exact fault sequence reproduces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <vector>

#include "src/sketch/fagms.h"
#include "src/stream/faults.h"
#include "src/stream/shard_engine.h"
#include "src/stream/source.h"

namespace sketchsample {
namespace {

// CI overrides the seed via SKETCHSAMPLE_FAULT_SEED; a reported failure
// must carry it for reproduction.
const uint64_t kSeed = FaultSeedFromEnv(0xFA017u);

std::vector<uint64_t> SequentialValues(size_t n) {
  std::vector<uint64_t> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = i;
  return values;
}

// Drains `source` through chunked pulls, riding out up to `stall_budget`
// consecutive stalls, and returns everything it emitted.
std::vector<uint64_t> Drain(StreamSource& source, size_t chunk,
                            int stall_budget = 1000) {
  std::vector<uint64_t> out;
  std::vector<uint64_t> scratch(chunk);
  int stalls = 0;
  while (true) {
    const size_t n = source.NextChunk(scratch.data(), chunk);
    if (n == 0) {
      if (source.Stalled() && ++stalls <= stall_budget) continue;
      break;
    }
    stalls = 0;
    out.insert(out.end(), scratch.begin(), scratch.begin() + n);
  }
  return out;
}

// Pumps `source` through a one-lane ingest engine at p = 1, so every
// routed tuple reaches the sketch.
ShardEngineStats RunEngine(StreamSource& source, size_t chunk,
                           uint64_t stall_retries) {
  SketchParams params;
  params.rows = 1;
  params.buckets = 16;
  ShardEngineOptions opts;
  opts.chunk_tuples = chunk;
  opts.stall_retries = stall_retries;
  ShardEngine<FagmsSketch> engine(FagmsSketch(params), opts);
  return engine.Run(source);
}

TEST(FaultProfileTest, NamedPresets) {
  EXPECT_FALSE(FaultProfile::FromName("none").Active());
  EXPECT_TRUE(FaultProfile::FromName("mild").Active());
  EXPECT_TRUE(FaultProfile::FromName("harsh").Active());
  EXPECT_THROW(FaultProfile::FromName("bogus"), std::invalid_argument);
}

TEST(FaultInjectingSourceTest, SameSeedSameFaults) {
  const FaultProfile profile = FaultProfile::FromName("harsh");
  const std::vector<uint64_t> input = SequentialValues(20000);

  VectorSource a(input), b(input), c(input);
  FaultInjectingSource fa(&a, profile, kSeed);
  FaultInjectingSource fb(&b, profile, kSeed);
  FaultInjectingSource fc(&c, profile, kSeed + 1);

  const auto out_a = Drain(fa, 256);
  const auto out_b = Drain(fb, 256);
  const auto out_c = Drain(fc, 256);
  EXPECT_EQ(out_a, out_b) << "fault seed " << kSeed
                          << " did not reproduce its own sequence";
  EXPECT_NE(out_a, out_c) << "fault seed " << kSeed
                          << ": distinct seeds produced identical faults";
  EXPECT_EQ(fa.faults_injected(), fb.faults_injected());
  EXPECT_GT(fa.faults_injected(), 0u);
}

TEST(FaultInjectingSourceTest, CorruptionFlipsValuesNotCounts) {
  FaultProfile profile;
  profile.corrupt_prob = 0.5;
  profile.corrupt_mask = 0xFF00ULL;
  const std::vector<uint64_t> input = SequentialValues(4096);
  VectorSource inner(input);
  FaultInjectingSource source(&inner, profile, kSeed);
  const auto out = Drain(source, 128);
  ASSERT_EQ(out.size(), input.size()) << "fault seed " << kSeed;
  size_t changed = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    if (out[i] != input[i]) {
      ++changed;
      // Corruption only touches bits under the mask.
      EXPECT_EQ((out[i] ^ input[i]) & ~profile.corrupt_mask, 0u);
    }
  }
  EXPECT_GT(changed, input.size() / 4) << "fault seed " << kSeed;
  // A corruption may XOR in all-zero bits under the mask, so the injected
  // count bounds the changed count from above.
  EXPECT_GE(source.faults_injected(), changed);
}

TEST(FaultInjectingSourceTest, DuplicationEmitsEveryTupleTwice) {
  FaultProfile profile;
  profile.duplicate_prob = 1.0;
  const std::vector<uint64_t> input = SequentialValues(1000);
  VectorSource inner(input);
  FaultInjectingSource source(&inner, profile, kSeed);
  const auto out = Drain(source, 64);
  ASSERT_EQ(out.size(), 2 * input.size()) << "fault seed " << kSeed;
  for (size_t i = 0; i < input.size(); ++i) {
    EXPECT_EQ(out[2 * i], input[i]);
    EXPECT_EQ(out[2 * i + 1], input[i]);
  }
}

TEST(FaultInjectingSourceTest, TruncatedPullsStillDeliverEverything) {
  FaultProfile profile;
  profile.truncate_prob = 1.0;  // every pull is a short read
  const std::vector<uint64_t> input = SequentialValues(5000);
  VectorSource inner(input);
  FaultInjectingSource source(&inner, profile, kSeed);

  std::vector<uint64_t> scratch(256);
  std::vector<uint64_t> out;
  bool saw_short_read = false;
  while (size_t n = source.NextChunk(scratch.data(), scratch.size())) {
    saw_short_read |= n < scratch.size() && out.size() + n < input.size();
    out.insert(out.end(), scratch.begin(), scratch.begin() + n);
  }
  EXPECT_TRUE(saw_short_read) << "fault seed " << kSeed;
  EXPECT_EQ(out, input) << "fault seed " << kSeed;
}

TEST(FaultInjectingSourceTest, ReorderingPermutesWithinStream) {
  FaultProfile profile;
  profile.reorder_prob = 0.2;
  const std::vector<uint64_t> input = SequentialValues(4096);
  VectorSource inner(input);
  FaultInjectingSource source(&inner, profile, kSeed);
  auto out = Drain(source, 256);
  ASSERT_EQ(out.size(), input.size());
  EXPECT_NE(out, input) << "fault seed " << kSeed;  // order changed...
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, input);  // ...but it is a permutation, nothing lost
}

TEST(FaultInjectingSourceTest, BoundedStallIsRiddenOut) {
  FaultProfile profile;
  profile.stall_every = 1000;
  profile.stall_pulls = 3;
  const std::vector<uint64_t> input = SequentialValues(5000);
  VectorSource inner(input);
  FaultInjectingSource source(&inner, profile, kSeed);

  const ShardEngineStats stats = RunEngine(source, 256, 8);
  EXPECT_TRUE(stats.ended) << "fault seed " << kSeed;
  EXPECT_FALSE(stats.stalled);
  EXPECT_EQ(stats.tuples, input.size());
  EXPECT_GT(stats.stall_retries, 0u);
}

TEST(FaultInjectingSourceTest, ExhaustedRetryBudgetDegradesNotHangs) {
  FaultProfile profile;
  profile.stall_every = 100;
  profile.stall_pulls = 50;  // longer than the engine's patience
  VectorSource inner(SequentialValues(5000));
  FaultInjectingSource source(&inner, profile, kSeed);

  const ShardEngineStats stats = RunEngine(source, 64, 4);
  EXPECT_TRUE(stats.stalled) << "fault seed " << kSeed;
  EXPECT_FALSE(stats.ended);
  // The partial answer survives: everything emitted before the stall.
  EXPECT_EQ(stats.kept, stats.tuples);
  EXPECT_GT(stats.tuples, 0u);
}

TEST(FaultInjectingSourceTest, MidStreamDeathStopsThePipeline) {
  FaultProfile profile;
  profile.die_after = 500;
  VectorSource inner(SequentialValues(10000));
  FaultInjectingSource source(&inner, profile, kSeed);

  const ShardEngineStats stats = RunEngine(source, 128, 4);
  EXPECT_TRUE(stats.stalled) << "fault seed " << kSeed;
  EXPECT_FALSE(stats.ended);  // death is not a clean end of stream
  EXPECT_TRUE(source.dead());
  EXPECT_EQ(stats.tuples, 500u);
  EXPECT_EQ(stats.kept, 500u);
}

TEST(FaultInjectingSourceTest, ScalarNextMatchesFaultSemantics) {
  FaultProfile profile;
  profile.duplicate_prob = 1.0;
  VectorSource inner(SequentialValues(10));
  FaultInjectingSource source(&inner, profile, kSeed);
  std::vector<uint64_t> out;
  int stalls = 0;
  while (true) {
    const std::optional<uint64_t> v = source.Next();
    if (!v) {
      if (source.Stalled() && ++stalls < 100) continue;
      break;
    }
    out.push_back(*v);
  }
  EXPECT_EQ(out.size(), 20u);
}

TEST(FaultInjectingOperatorTest, InjectsOnThePushPath) {
  FaultProfile profile;
  profile.duplicate_prob = 1.0;
  FaultInjectingOperator faulty(profile, kSeed);
  const std::vector<uint64_t> input = SequentialValues(100);
  const std::vector<uint64_t>& seen =
      faulty.OnTuples(input.data(), input.size());
  EXPECT_EQ(seen.size(), 200u);
  EXPECT_EQ(faulty.faults_injected(), 100u);

  FaultProfile corrupt;
  corrupt.corrupt_prob = 1.0;
  corrupt.corrupt_mask = 0xFULL;
  FaultInjectingOperator faulty2(corrupt, kSeed);
  const uint64_t value = 0x100;
  const std::vector<uint64_t>& captured = faulty2.OnTuples(&value, 1);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0] & ~0xFULL, 0x100u) << "fault seed " << kSeed;
  EXPECT_EQ(faulty2.faults_injected(), 1u);
}

TEST(FaultSeedFromEnvTest, ParsesOverridesAndFallsBack) {
  ASSERT_EQ(unsetenv("SKETCHSAMPLE_FAULT_SEED"), 0);
  EXPECT_EQ(FaultSeedFromEnv(42), 42u);
  ASSERT_EQ(setenv("SKETCHSAMPLE_FAULT_SEED", "12345", 1), 0);
  EXPECT_EQ(FaultSeedFromEnv(42), 12345u);
  ASSERT_EQ(setenv("SKETCHSAMPLE_FAULT_SEED", "not-a-number", 1), 0);
  EXPECT_EQ(FaultSeedFromEnv(42), 42u);
  ASSERT_EQ(unsetenv("SKETCHSAMPLE_FAULT_SEED"), 0);
}

}  // namespace
}  // namespace sketchsample
