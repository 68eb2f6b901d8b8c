// KLL quantile sketch (Karnin–Lang–Liberty, FOCS'16) over 64-bit values.
//
// The sampled-stream pipeline answers rank/quantile queries on the *kept*
// tuples; the estimators in src/core then widen the rank error by the
// Bernoulli-sampling CLT term at the realized rate p̂ (an analysis the
// source paper does not provide — see docs/DESIGN.md). The sketch itself
// is the standard compactor hierarchy: level l holds items of weight 2^l;
// when the total retained count exceeds the capacity budget, the lowest
// over-capacity level is sorted and every other item (chosen by a seeded
// deterministic coin) is promoted to level l+1.
//
// Determinism contract (load-bearing for the engine's bit-exactness
// guarantee): the full sketch state is a pure function of (k, seed) and
// the *sequence* of Update() calls. Compaction triggers depend only on
// counts and the coin flips only on (seed, level, compaction ordinal), so
// two sketches fed the same value sequence — regardless of where the
// feeder paused, checkpointed, or resumed — are bit-identical. The cached
// per-level capacities and their sum depend only on (k, level count), and
// the cached retained count only on the level sizes, so the cache is
// derived state: it is rebuilt, never serialized, and a deserialized
// sketch makes the same compaction decisions as the one it was saved
// from. The shard engine exploits this by folding kept tuples in stream
// order (src/stream/shard_engine.cc), which makes quantile answers
// independent of the shard count.
#ifndef SKETCHSAMPLE_SKETCH_KLL_H_
#define SKETCHSAMPLE_SKETCH_KLL_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sketchsample {

/// KLL quantile sketch over uint64 stream values.
class KllSketch {
 public:
  /// `k` >= 8 controls accuracy (rank error ~ O(1/k)); `seed` fixes the
  /// compaction coin. Throws std::invalid_argument for k < 8.
  KllSketch(size_t k, uint64_t seed);

  /// Observes one stream value.
  void Update(uint64_t value);

  /// Merges another sketch built with the same (k, seed). Note: merge is
  /// order-dependent (as in every KLL implementation); the engine's
  /// bit-exactness guarantee comes from position-ordered *updates*, not
  /// from merging per-shard partials.
  void Merge(const KllSketch& other);

  bool CompatibleWith(const KllSketch& other) const {
    return k_ == other.k_ && seed_ == other.seed_;
  }

  /// Value whose rank is approximately q·n, for q in [0, 1]. q = 0 returns
  /// the exact minimum, q = 1 the exact maximum. Throws
  /// std::invalid_argument if q is outside [0, 1] or the sketch is empty.
  uint64_t EstimateQuantile(double q) const;

  /// EstimateQuantile at every rank in `qs`, answered from one sorted
  /// weighted view of the retained items (one sort per call, not per
  /// rank; KllSortedView(*this).Quantiles(qs)). Same values and same
  /// exceptions as one EstimateQuantile call per rank.
  std::vector<uint64_t> EstimateQuantiles(const std::vector<double>& qs) const;

  /// Approximate normalized rank of `value`: fraction of observed items
  /// strictly below it. Returns 0 for an empty sketch.
  double EstimateRank(uint64_t value) const;

  /// Standard deviation of the normalized rank error, from the per-level
  /// compaction variance accounting (each compaction at level l perturbs
  /// any rank by a zero-mean error of magnitude <= 2^l). Zero while no
  /// compaction has happened (ranks are exact).
  double RankErrorStddev() const;

  size_t k() const { return k_; }
  uint64_t seed() const { return seed_; }
  uint64_t n() const { return n_; }
  /// Total items currently retained across all levels.
  size_t retained() const { return retained_; }
  uint64_t min_item() const { return min_item_; }
  uint64_t max_item() const { return max_item_; }
  uint64_t compactions() const { return compactions_; }
  double rank_error_variance() const { return rank_error_var_; }
  /// Compactor buffers, level 0 first (weight 2^l). Unsorted within a
  /// level; exposed for serialization.
  const std::vector<std::vector<uint64_t>>& levels() const { return levels_; }

  /// Replaces the full state (deserialization support). Validates weight
  /// conservation (sum of level counts times 2^l equals n), level-count
  /// bounds, and moment sanity; throws std::invalid_argument otherwise.
  void LoadState(uint64_t n, uint64_t min_item, uint64_t max_item,
                 uint64_t compactions, double rank_error_var,
                 std::vector<std::vector<uint64_t>> levels);

 private:
  /// Recomputes capacities_ and budget_ for the current level count: the
  /// top level gets k slots, each level below 2/3 of the one above,
  /// floored at 8. Called whenever levels_ changes size.
  void RefreshCapacities();
  void CompactIfNeeded();
  void CompactLevel(size_t level);

  size_t k_;
  uint64_t seed_;
  uint64_t n_ = 0;
  uint64_t min_item_ = 0;
  uint64_t max_item_ = 0;
  uint64_t compactions_ = 0;       // total compaction operations (coin stream)
  double rank_error_var_ = 0;      // sum over compactions of 4^level
  std::vector<std::vector<uint64_t>> levels_;
  // Derived state, so Update checks the budget in O(1): capacity per level,
  // their sum, and the item count across levels_.
  std::vector<size_t> capacities_;
  size_t budget_ = 0;
  size_t retained_ = 0;
};

/// Sorted cumulative view of a KllSketch: every retained item in ascending
/// value order with the running weight up to it, plus the exact extremes.
/// Building it is the sort EstimateQuantiles pays per call; a view built
/// once answers any number of rank sets (the service keeps one per
/// published snapshot, src/stream/shard_engine.h).
class KllSortedView {
 public:
  KllSortedView() = default;
  explicit KllSortedView(const KllSketch& sketch);

  /// Same values and same exceptions as sketch.EstimateQuantiles(qs) on
  /// the sketch the view was built from.
  std::vector<uint64_t> Quantiles(const std::vector<double>& qs) const;

 private:
  std::vector<std::pair<uint64_t, uint64_t>> items_;  // (value, cumulative)
  uint64_t n_ = 0;
  uint64_t min_item_ = 0;
  uint64_t max_item_ = 0;
};

}  // namespace sketchsample

#endif  // SKETCHSAMPLE_SKETCH_KLL_H_
