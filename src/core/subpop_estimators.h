// Subpopulation-weight estimation over the keyed bottom-k sketch
// (Cohen–Kaplan, "Tighter estimation using bottom k sketches",
// arXiv:0802.3448), composed with the paper's Bernoulli load shedding.
//
// A bottom-k sketch retains the k distinct keys with the smallest hashes —
// a uniform sample of the distinct keys that can be filtered by *any*
// predicate chosen after the stream has passed. With the k-th smallest
// hash at normalized position u, each of the other k−1 retained keys is a
// distinct key that survived a u-probability inclusion test, so the
// Horvitz–Thompson sum Σ w_i / u over the retained keys matching the
// predicate estimates the total weight of the matching subpopulation.
//
// Two error sources stack (the composition the source paper does not
// analyze):
//   1. bottom-k sampling of distinct keys, variance (1−u)/u² · Σ w_i²
//      over the matching sample (Cohen–Kaplan's conditional variance for
//      priority/bottom-k sampling with the threshold fixed at u);
//   2. Bernoulli shedding at realized rate p̂ upstream of the sketch: each
//      pre-shed occurrence reaches the sketch independently with
//      probability p, so the kept weight of the subpopulation is
//      Binomial(W, p) and scaling by 1/p̂ adds W(1−p̂)/p̂ of variance.
// Intervals come from the same CLT machinery as the join estimators
// (src/core/confidence.h), keeping /query/subpop consistent with
// /query/selfjoin error reporting.
#ifndef SKETCHSAMPLE_CORE_SUBPOP_ESTIMATORS_H_
#define SKETCHSAMPLE_CORE_SUBPOP_ESTIMATORS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/confidence.h"
#include "src/sketch/kmv.h"

namespace sketchsample {

/// A predicate over 64-bit keys, restricted to a small closed language so
/// service queries can be parsed strictly and printed canonically.
struct SubpopPredicate {
  enum class Kind {
    kRange,  ///< a <= key <= b
    kMod,    ///< key % a == b  (a >= 1, b < a)
    kMask,   ///< (key & a) == b  (b must be a subset of mask a)
  };

  Kind kind = Kind::kRange;
  uint64_t a = 0;
  uint64_t b = 0;

  bool Matches(uint64_t key) const;
  /// Canonical text form, re-parseable by ParseSubpopFilter:
  /// "range:lo-hi", "mod:m-r", "mask:m-v" (all numbers decimal).
  std::string ToString() const;
};

/// Parses "range:lo-hi" | "mod:m-r" | "mask:m-v" (decimal u64 operands).
/// Throws std::invalid_argument on any malformed or out-of-domain input —
/// the service maps that to a 400.
SubpopPredicate ParseSubpopFilter(const std::string& text);

/// A subpopulation-weight estimate with its variance decomposition.
struct SubpopEstimate {
  double estimate = 0;       ///< pre-shed subpopulation weight (tuples)
  double kept_estimate = 0;  ///< weight among *kept* tuples only
  double variance = 0;       ///< total variance of `estimate`
  double sketch_variance = 0;    ///< bottom-k component (pre-shed scale)
  double sampling_variance = 0;  ///< Bernoulli-shedding component
  size_t matched = 0;        ///< retained entries matching the predicate
  size_t sample_size = 0;    ///< retained entries participating (k−1 or all)
  bool exact = false;        ///< sketch unsaturated: kept weight is exact
};

/// Estimates the total pre-shed weight (occurrence count) of the keys
/// matching `pred`, from a keyed bottom-k sketch built over the kept
/// stream at realized sampling rate `realized_p` in (0, 1]. Throws
/// std::invalid_argument for realized_p outside (0, 1].
SubpopEstimate EstimateSubpopulation(const KeyedKmvSketch& sketch,
                                     const SubpopPredicate& pred,
                                     double realized_p);

/// The same estimate from the sketch's retained entries (`Entries()`, in
/// ascending hash order) and its `k` (>= 2, else std::invalid_argument):
/// the service derives the entries once per published snapshot
/// (src/stream/shard_engine.h) instead of copying them out per query.
SubpopEstimate EstimateSubpopulation(
    const std::vector<KeyedKmvSketch::Entry>& entries, size_t k,
    const SubpopPredicate& pred, double realized_p);

/// CLT interval for a subpopulation estimate, clamped below at zero
/// (weights are nonnegative).
ConfidenceInterval SubpopInterval(const SubpopEstimate& estimate,
                                  double level);

}  // namespace sketchsample

#endif  // SKETCHSAMPLE_CORE_SUBPOP_ESTIMATORS_H_
