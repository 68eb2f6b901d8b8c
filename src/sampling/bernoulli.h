// Bernoulli sampling — the load-shedding sampler (§III-B, §VI-A).
//
// Each tuple is kept independently with probability p. Two implementations:
//
//   * BernoulliSampler: one uniform draw per tuple (the textbook algorithm);
//   * GeometricSkipSampler: draws the *gap* to the next kept tuple from a
//     geometric distribution (Olken's skip technique, the paper's ref [18]),
//     so work is done only for tuples that are actually kept. This is what
//     makes the sketch-update speed-up proportional to 1/p (§VI-A).
#ifndef SKETCHSAMPLE_SAMPLING_BERNOULLI_H_
#define SKETCHSAMPLE_SAMPLING_BERNOULLI_H_

#include <cstdint>
#include <vector>

#include "src/util/rng.h"

namespace sketchsample {

/// Per-tuple coin-flip Bernoulli sampler.
class BernoulliSampler {
 public:
  /// p must lie in [0, 1].
  BernoulliSampler(double p, uint64_t seed);

  /// Returns true when the current tuple should be kept.
  bool Keep() { return rng_.NextDouble() < p_; }

  double p() const { return p_; }

  /// Filters a materialized stream; keeps order.
  std::vector<uint64_t> Sample(const std::vector<uint64_t>& stream);

 private:
  double p_;
  Xoshiro256 rng_;
};

/// Skip-based Bernoulli sampler: identical sampling law, O(1) work per
/// *kept* tuple. NextSkip() returns how many tuples to discard before the
/// next kept one (possibly 0).
class GeometricSkipSampler {
 public:
  /// p must lie in (0, 1]. (p == 0 would skip forever; callers handle it.)
  GeometricSkipSampler(double p, uint64_t seed);

  /// Number of tuples to skip before the next accepted tuple.
  uint64_t NextSkip();

  double p() const { return p_; }

  /// Filters a materialized stream using skips; keeps order. Produces a
  /// sample with exactly the Bernoulli(p) law of BernoulliSampler.
  std::vector<uint64_t> Sample(const std::vector<uint64_t>& stream);

 private:
  double p_;
  double log1mp_;  // log(1 - p); -inf for p == 1
  Xoshiro256 rng_;
};

/// Stateless positional Bernoulli sampler: the keep/shed decision for the
/// tuple at absolute stream position i is a pure function of (seed, i, p) —
/// U(i) = MixSeed(seed, i) mapped to [0,1) with 53-bit precision, keep iff
/// U(i) < p.
///
/// Two properties the stateful samplers above cannot offer:
///   * partition independence: any routing of the stream across shards
///     (src/stream/shard_engine.h) sees the same per-position coins, so the
///     merged sample — and hence the merged sketch — is bit-identical at
///     every shard count;
///   * monotone retargeting: lowering p mid-stream can only flip kept
///     positions to shed (U(i) is fixed), so adaptive shedding composes
///     cleanly with resume — no RNG state needs checkpointing at all.
/// The per-position coins are i.i.d. uniform across positions (SplitMix64's
/// output quality), so the sample follows the exact Bernoulli(p) law of
/// BernoulliSampler, just indexed by position instead of arrival order.
class PositionalBernoulliSampler {
 public:
  /// p must lie in [0, 1].
  PositionalBernoulliSampler(double p, uint64_t seed);

  /// The uniform coin for absolute position `i` (same value every call).
  /// 53-bit mantissa of the MixSeed output, matching Xoshiro256::NextDouble's
  /// bit budget.
  double Uniform(uint64_t position) const {
    return static_cast<double>(MixSeed(seed_, position) >> 11) * 0x1.0p-53;
  }

  /// True when the tuple at absolute position `i` is kept.
  bool Keep(uint64_t position) const { return Uniform(position) < p_; }

  /// Compacts the kept values of a chunk whose first tuple sits at absolute
  /// position `base` into out[0..k); returns k. `out` may alias `values`.
  size_t KeepBatch(uint64_t base, const uint64_t* values, size_t n,
                   uint64_t* out) const;

  double p() const { return p_; }

 private:
  double p_;
  uint64_t seed_;
};

}  // namespace sketchsample

#endif  // SKETCHSAMPLE_SAMPLING_BERNOULLI_H_
