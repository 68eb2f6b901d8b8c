#include "src/sketch/kll.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/util/metrics.h"
#include "src/util/rng.h"

namespace sketchsample {

namespace {

// Levels are capped far below this in practice (weight 2^l overflows u64 at
// l = 64), and the deserializer enforces the same bound on hostile input.
constexpr size_t kMaxLevels = 64;
constexpr size_t kMinLevelCapacity = 8;

}  // namespace

KllSketch::KllSketch(size_t k, uint64_t seed) : k_(k), seed_(seed) {
  if (k < 8) {
    throw std::invalid_argument("KLL needs k >= 8");
  }
  levels_.emplace_back();
  RefreshCapacities();
}

void KllSketch::RefreshCapacities() {
  // Geometric decay: the highest level gets k slots, each lower level 2/3
  // of the one above, floored so low levels never degenerate. Walking down
  // from the top runs, for each level, the same chain of floating-point
  // multiplications as computing that level on its own, so the rounded
  // capacities, and every compaction decision, match it bit for bit.
  capacities_.resize(levels_.size());
  budget_ = 0;
  double cap = static_cast<double>(k_);
  for (size_t l = levels_.size(); l-- > 0;) {
    const size_t rounded = static_cast<size_t>(std::ceil(cap));
    capacities_[l] = std::max(kMinLevelCapacity, rounded);
    budget_ += capacities_[l];
    cap *= 2.0 / 3.0;
  }
}

void KllSketch::Update(uint64_t value) {
  SKETCHSAMPLE_METRIC_INC("sketch.kll.updates");
  if (n_ == 0) {
    min_item_ = value;
    max_item_ = value;
  } else {
    min_item_ = std::min(min_item_, value);
    max_item_ = std::max(max_item_, value);
  }
  ++n_;
  levels_[0].push_back(value);
  ++retained_;
  if (retained_ > budget_) CompactIfNeeded();
}

void KllSketch::CompactIfNeeded() {
  while (retained_ > budget_) {
    // Pigeonhole: if every level were within its capacity the total would
    // be within the budget, so an over-capacity level exists; compact the
    // lowest one (cheapest items, keeps the hierarchy shallow).
    size_t target = levels_.size();
    for (size_t l = 0; l < levels_.size(); ++l) {
      if (levels_[l].size() > capacities_[l]) {
        target = l;
        break;
      }
    }
    if (target == levels_.size()) break;  // unreachable; defensive
    CompactLevel(target);
  }
}

void KllSketch::CompactLevel(size_t level) {
  // Grow the hierarchy before taking any reference into levels_ —
  // emplace_back may reallocate the outer vector.
  if (level + 1 == levels_.size()) {
    if (levels_.size() >= kMaxLevels) {
      throw std::logic_error("KLL level hierarchy overflow");
    }
    levels_.emplace_back();
    RefreshCapacities();
  }
  std::vector<uint64_t>& buf = levels_[level];
  std::sort(buf.begin(), buf.end());
  // Deterministic coin: a pure function of (seed, level, compaction
  // ordinal), so the survivor choice — and with it the whole sketch state —
  // depends only on the update sequence.
  const uint64_t coin =
      MixSeed(seed_, (static_cast<uint64_t>(level) << 32) ^ compactions_) & 1;
  const size_t odd = buf.size() % 2;
  const size_t even_count = buf.size() - odd;
  for (size_t i = coin; i < even_count; i += 2) {
    levels_[level + 1].push_back(buf[i]);
  }
  if (odd != 0) {
    // Odd leftover (the largest after sorting) stays at this level.
    buf[0] = buf[even_count];
    buf.resize(1);
  } else {
    buf.clear();
  }
  // even_count items left this level and half of them arrived above.
  retained_ -= even_count / 2;
  ++compactions_;
  // Each compaction at level l shifts any fixed rank by a zero-mean error
  // of magnitude at most 2^l; account its variance conservatively as 4^l.
  rank_error_var_ += std::pow(4.0, static_cast<double>(level));
}

void KllSketch::Merge(const KllSketch& other) {
  if (!CompatibleWith(other)) {
    throw std::invalid_argument("merge of incompatible KLL sketches");
  }
  SKETCHSAMPLE_METRIC_INC("sketch.kll.merges");
  if (other.n_ == 0) return;
  if (n_ == 0) {
    min_item_ = other.min_item_;
    max_item_ = other.max_item_;
  } else {
    min_item_ = std::min(min_item_, other.min_item_);
    max_item_ = std::max(max_item_, other.max_item_);
  }
  if (levels_.size() < other.levels_.size()) {
    levels_.resize(other.levels_.size());
    RefreshCapacities();
  }
  for (size_t l = 0; l < other.levels_.size(); ++l) {
    levels_[l].insert(levels_[l].end(), other.levels_[l].begin(),
                      other.levels_[l].end());
  }
  retained_ += other.retained_;
  n_ += other.n_;
  compactions_ += other.compactions_;
  rank_error_var_ += other.rank_error_var_;
  CompactIfNeeded();
}

uint64_t KllSketch::EstimateQuantile(double q) const {
  return EstimateQuantiles({q})[0];
}

std::vector<uint64_t> KllSketch::EstimateQuantiles(
    const std::vector<double>& qs) const {
  return KllSortedView(*this).Quantiles(qs);
}

KllSortedView::KllSortedView(const KllSketch& sketch)
    : n_(sketch.n()), min_item_(sketch.min_item()),
      max_item_(sketch.max_item()) {
  items_.reserve(sketch.retained());
  for (size_t l = 0; l < sketch.levels().size(); ++l) {
    const uint64_t weight = uint64_t{1} << l;
    for (uint64_t v : sketch.levels()[l]) items_.emplace_back(v, weight);
  }
  std::sort(items_.begin(), items_.end());
  uint64_t cumulative = 0;
  for (auto& item : items_) item.second = cumulative += item.second;
}

std::vector<uint64_t> KllSortedView::Quantiles(
    const std::vector<double>& qs) const {
  for (double q : qs) {
    if (!(q >= 0.0 && q <= 1.0)) {
      throw std::invalid_argument("quantile rank must be in [0, 1]");
    }
  }
  if (n_ == 0) {
    throw std::invalid_argument("quantile query on an empty sketch");
  }
  std::vector<uint64_t> answers;
  answers.reserve(qs.size());
  for (double q : qs) {
    if (q == 0.0 || q == 1.0) {
      answers.push_back(q == 0.0 ? min_item_ : max_item_);
      continue;
    }
    const double target = q * static_cast<double>(n_);
    uint64_t target_weight =
        std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(target)));
    target_weight = std::min(target_weight, n_);
    // First item whose cumulative weight reaches the target.
    const auto it = std::partition_point(
        items_.begin(), items_.end(), [target_weight](const auto& item) {
          return item.second < target_weight;
        });
    answers.push_back(it != items_.end() ? it->first : max_item_);
  }
  return answers;
}

double KllSketch::EstimateRank(uint64_t value) const {
  if (n_ == 0) return 0.0;
  uint64_t below = 0;
  for (size_t l = 0; l < levels_.size(); ++l) {
    const uint64_t weight = uint64_t{1} << l;
    for (uint64_t v : levels_[l]) {
      if (v < value) below += weight;
    }
  }
  return static_cast<double>(below) / static_cast<double>(n_);
}

double KllSketch::RankErrorStddev() const {
  if (n_ == 0) return 0.0;
  return std::sqrt(rank_error_var_) / static_cast<double>(n_);
}

void KllSketch::LoadState(uint64_t n, uint64_t min_item, uint64_t max_item,
                          uint64_t compactions, double rank_error_var,
                          std::vector<std::vector<uint64_t>> levels) {
  if (levels.empty() || levels.size() > kMaxLevels) {
    throw std::invalid_argument("KLL load with invalid level count");
  }
  // Weight conservation: the compactor hierarchy never loses mass, so the
  // per-level counts must account for exactly n observations. This is the
  // single strongest structural check a hostile buffer must pass.
  uint64_t mass = 0;
  for (size_t l = 0; l < levels.size(); ++l) {
    uint64_t level_mass;
    if (__builtin_mul_overflow(static_cast<uint64_t>(levels[l].size()),
                               uint64_t{1} << l, &level_mass) ||
        __builtin_add_overflow(mass, level_mass, &mass)) {
      throw std::invalid_argument("KLL load weight overflow");
    }
  }
  if (mass != n) {
    throw std::invalid_argument("KLL load violates weight conservation");
  }
  if (n > 0 && min_item > max_item) {
    throw std::invalid_argument("KLL load with min above max");
  }
  if (n == 0 && (min_item != 0 || max_item != 0 || compactions != 0)) {
    throw std::invalid_argument("KLL load of empty sketch with stale state");
  }
  if (!std::isfinite(rank_error_var) || rank_error_var < 0.0) {
    throw std::invalid_argument("KLL load with invalid rank-error variance");
  }
  n_ = n;
  min_item_ = min_item;
  max_item_ = max_item;
  compactions_ = compactions;
  rank_error_var_ = rank_error_var;
  levels_ = std::move(levels);
  RefreshCapacities();
  retained_ = 0;
  for (const auto& level : levels_) retained_ += level.size();
}

}  // namespace sketchsample
