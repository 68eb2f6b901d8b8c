// KllSketch unit tests: the cached capacity budget stays consistent with
// the level hierarchy through Update, Merge and LoadState, and the
// multi-rank quantile entry point answers exactly like a per-rank scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/sketch/kll.h"
#include "src/sketch/serialize.h"
#include "src/util/rng.h"

namespace sketchsample {
namespace {

size_t LevelSizeSum(const KllSketch& kll) {
  size_t total = 0;
  for (const auto& level : kll.levels()) total += level.size();
  return total;
}

KllSketch Reload(const KllSketch& kll) {
  return DeserializeKll(SerializeSketch(kll));
}

// A copy restored partway through a stream, fed and merged like the
// original, must stay byte-identical to it at every step. After each merge
// the copy is reloaded again, so its cache comes from LoadState while the
// original's comes from Merge: a cache that either path fails to refresh
// makes the two compact at different times and diverge.
TEST(KllCacheTest, RestoredCopyTracksOriginalThroughUpdatesAndMerges) {
  KllSketch original(16, 3);
  for (uint64_t i = 0; i < 2000; ++i) original.Update(MixSeed(1, i));
  KllSketch copy = Reload(original);

  // The third sketch runs ahead, so merging it grows the hierarchy of both.
  KllSketch third(16, 3);
  for (uint64_t i = 0; i < 50000; ++i) third.Update(MixSeed(2, i));
  ASSERT_GT(third.levels().size(), original.levels().size());

  auto expect_consistent = [&](const char* step) {
    SCOPED_TRACE(step);
    EXPECT_EQ(original.retained(), LevelSizeSum(original));
    EXPECT_EQ(copy.retained(), LevelSizeSum(copy));
    EXPECT_EQ(SerializeSketch(original), SerializeSketch(copy));
  };
  expect_consistent("after reload");
  uint64_t next = 0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 1500; ++i) {
      const uint64_t value = MixSeed(3, next++);
      original.Update(value);
      copy.Update(value);
      expect_consistent("update");
      if (HasFailure()) return;
    }
    original.Merge(third);
    copy.Merge(third);
    expect_consistent("merge");
    copy = Reload(copy);
    expect_consistent("reload after merge");
    for (uint64_t i = 0; i < 20000; ++i) third.Update(MixSeed(4 + round, i));
  }
}

// The naive reference: sort (value, weight) pairs and scan for the first
// cumulative weight reaching ceil(q·n), clamped to [1, n].
uint64_t ReferenceQuantile(const KllSketch& kll, double q) {
  if (q == 0.0) return kll.min_item();
  if (q == 1.0) return kll.max_item();
  std::vector<std::pair<uint64_t, uint64_t>> items;
  for (size_t l = 0; l < kll.levels().size(); ++l) {
    for (uint64_t v : kll.levels()[l]) items.emplace_back(v, uint64_t{1} << l);
  }
  std::sort(items.begin(), items.end());
  uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(kll.n()))));
  target = std::min(target, kll.n());
  uint64_t cumulative = 0;
  for (const auto& [value, weight] : items) {
    cumulative += weight;
    if (cumulative >= target) return value;
  }
  return kll.max_item();
}

TEST(KllQuantilesTest, MultiRankMatchesPerRankScan) {
  KllSketch kll(32, 9);
  for (uint64_t i = 0; i < 30000; ++i) kll.Update(MixSeed(5, i) % 5000);
  std::vector<double> qs = {0.0, 1.0, 0.5, 1e-9, 1.0 - 1e-9};
  for (int i = 1; i < 100; ++i) qs.push_back(i / 100.0);
  const std::vector<uint64_t> answers = kll.EstimateQuantiles(qs);
  ASSERT_EQ(answers.size(), qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    SCOPED_TRACE(qs[i]);
    EXPECT_EQ(answers[i], ReferenceQuantile(kll, qs[i]));
    EXPECT_EQ(kll.EstimateQuantile(qs[i]), answers[i]);
  }
  EXPECT_TRUE(kll.EstimateQuantiles({}).empty());
}

TEST(KllQuantilesTest, MultiRankValidatesEveryRankAndEmptiness) {
  KllSketch kll(16, 1);
  EXPECT_THROW(kll.EstimateQuantiles({0.5}), std::invalid_argument);
  kll.Update(7);
  EXPECT_THROW(kll.EstimateQuantiles({0.5, 1.5}), std::invalid_argument);
  EXPECT_THROW(kll.EstimateQuantiles({-0.1, 0.5}), std::invalid_argument);
  EXPECT_THROW(kll.EstimateQuantiles({std::nan("")}), std::invalid_argument);
  EXPECT_EQ(kll.EstimateQuantiles({0.0, 0.5, 1.0}),
            (std::vector<uint64_t>{7, 7, 7}));
}

TEST(KllQuantilesTest, SortedViewAnswersLikeTheSketch) {
  KllSketch kll(32, 9);
  for (uint64_t i = 0; i < 30000; ++i) kll.Update(MixSeed(6, i) % 5000);
  const KllSortedView view(kll);
  std::vector<double> qs = {0.0, 1.0, 1e-9, 1.0 - 1e-9};
  for (int i = 1; i < 100; ++i) qs.push_back(i / 100.0);
  EXPECT_EQ(view.Quantiles(qs), kll.EstimateQuantiles(qs));
  EXPECT_TRUE(view.Quantiles({}).empty());
  EXPECT_THROW(view.Quantiles({0.5, 1.5}), std::invalid_argument);

  // A view of an empty sketch builds, and answers with the sketch's
  // exceptions: ranks are checked before emptiness.
  const KllSortedView empty{KllSketch(16, 1)};
  EXPECT_THROW(empty.Quantiles({0.5}), std::invalid_argument);
  EXPECT_THROW(empty.Quantiles({}), std::invalid_argument);
  EXPECT_THROW(empty.Quantiles({std::nan("")}), std::invalid_argument);
}

}  // namespace
}  // namespace sketchsample
