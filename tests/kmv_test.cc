// Tests for the KMV distinct-count sketch.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/data/zipf.h"
#include "src/sketch/kmv.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace sketchsample {
namespace {

TEST(KmvTest, NeedsKAtLeastTwo) {
  EXPECT_THROW(KmvSketch(1, 1), std::invalid_argument);
  EXPECT_NO_THROW(KmvSketch(2, 1));
}

TEST(KmvTest, ExactBelowK) {
  KmvSketch sketch(64, 7);
  for (uint64_t v = 0; v < 40; ++v) sketch.Update(v);
  EXPECT_DOUBLE_EQ(sketch.EstimateDistinct(), 40.0);
  // Duplicates don't change anything.
  for (uint64_t v = 0; v < 40; ++v) sketch.Update(v);
  EXPECT_DOUBLE_EQ(sketch.EstimateDistinct(), 40.0);
  EXPECT_EQ(sketch.retained(), 40u);
}

TEST(KmvTest, EstimatesLargeCardinalities) {
  constexpr uint64_t kDistinct = 100000;
  KmvSketch sketch(1024, 3);
  for (uint64_t v = 0; v < kDistinct; ++v) sketch.Update(v);
  // Relative error ~ 1/sqrt(k) ≈ 3%; allow 5 sigma.
  EXPECT_NEAR(sketch.EstimateDistinct(), static_cast<double>(kDistinct),
              5.0 * kDistinct / std::sqrt(1024.0));
}

TEST(KmvTest, DuplicateHeavyStreamCountsDistinctOnly) {
  constexpr size_t kDomain = 5000;
  ZipfSampler sampler(kDomain, 1.0);
  Xoshiro256 rng(5);
  KmvSketch sketch(512, 9);
  std::vector<bool> seen(kDomain, false);
  size_t truth = 0;
  for (int i = 0; i < 200000; ++i) {
    const uint64_t v = sampler.Next(rng);
    if (!seen[v]) {
      seen[v] = true;
      ++truth;
    }
    sketch.Update(v);
  }
  EXPECT_NEAR(sketch.EstimateDistinct(), static_cast<double>(truth),
              5.0 * truth / std::sqrt(512.0));
}

TEST(KmvTest, IsUnbiasedOverSeeds) {
  constexpr uint64_t kDistinct = 5000;
  RunningStats stats;
  for (int rep = 0; rep < 300; ++rep) {
    KmvSketch sketch(256, MixSeed(11, rep));
    for (uint64_t v = 0; v < kDistinct; ++v) sketch.Update(v);
    stats.Add(sketch.EstimateDistinct());
  }
  EXPECT_NEAR(stats.Mean(), static_cast<double>(kDistinct),
              5.0 * stats.StdError());
}

TEST(KmvTest, MergeEstimatesUnionCardinality) {
  KmvSketch a(512, 21), b(512, 21);
  // Overlapping streams: |A| = 30000, |B| = 30000, |A ∪ B| = 45000.
  for (uint64_t v = 0; v < 30000; ++v) a.Update(v);
  for (uint64_t v = 15000; v < 45000; ++v) b.Update(v);
  a.Merge(b);
  EXPECT_NEAR(a.EstimateDistinct(), 45000.0,
              5.0 * 45000.0 / std::sqrt(512.0));
}

TEST(KmvTest, MergeRequiresSameSeedAndK) {
  KmvSketch a(64, 1), b(64, 2), c(128, 1);
  EXPECT_THROW(a.Merge(b), std::invalid_argument);
  EXPECT_THROW(a.Merge(c), std::invalid_argument);
}

TEST(KmvTest, MergeWithEmptyIsIdentity) {
  KmvSketch a(64, 3), empty(64, 3);
  for (uint64_t v = 0; v < 1000; ++v) a.Update(v);
  const double before = a.EstimateDistinct();
  a.Merge(empty);
  EXPECT_DOUBLE_EQ(a.EstimateDistinct(), before);
}


void ExpectSameEntries(const std::vector<KeyedKmvSketch::Entry>& got,
                       const std::vector<KeyedKmvSketch::Entry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].hash, want[i].hash) << i;
    EXPECT_EQ(got[i].key, want[i].key) << i;
    EXPECT_EQ(got[i].weight, want[i].weight) << i;
  }
}

TEST(KeyedKmvTest, FullSketchSkipsKeysAboveThresholdButCountsTheThresholdKey) {
  KeyedKmvSketch sketch(8, 11);
  for (uint64_t key = 0; key < 1000; ++key) sketch.Update(key);
  ASSERT_TRUE(sketch.saturated());
  const std::vector<KeyedKmvSketch::Entry> before = sketch.Entries();
  // Every key seen but not retained hashes above the threshold (the
  // largest retained hash): feeding them again changes nothing.
  for (uint64_t key = 0; key < 1000; ++key) {
    bool retained = false;
    for (const KeyedKmvSketch::Entry& entry : before) {
      retained = retained || entry.key == key;
    }
    if (!retained) sketch.Update(key);
  }
  ExpectSameEntries(sketch.Entries(), before);
  // The key whose hash is the threshold is retained, so it gains weight.
  std::vector<KeyedKmvSketch::Entry> after = before;
  ++after.back().weight;
  sketch.Update(before.back().key);
  ExpectSameEntries(sketch.Entries(), after);
}

}  // namespace
}  // namespace sketchsample
