// KMV (k-minimum values) distinct-count estimator.
//
// Online aggregation engines pair the join/F2 statistics of this library
// with distinct-value counts (F0) when choosing plans (§VI-C "statistics
// used by an online aggregation engine to take decisions"). KMV keeps the
// k smallest hash values seen; if the k-th smallest maps to fraction u of
// the hash space, about k/u distinct values exist. The estimator
// (k−1)/u is unbiased for F0 under a uniform hash.
//
// KMV sketches built with the same seed support union (merge the value
// sets, keep the k smallest), giving distinct counts over unions of
// streams — the same shard-then-merge deployment as the linear sketches.
#ifndef SKETCHSAMPLE_SKETCH_KMV_H_
#define SKETCHSAMPLE_SKETCH_KMV_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

namespace sketchsample {

/// Normalized position (h + 1) / 2^64 in (0, 1] of the k-th smallest
/// retained hash `h`: the inclusion threshold both KMV estimators scale by.
double KmvThreshold01(uint64_t kth_hash);

/// k-minimum-values distinct counter over 64-bit keys.
class KmvSketch {
 public:
  /// `k` >= 2 minimum values retained; `seed` fixes the hash.
  KmvSketch(size_t k, uint64_t seed);

  /// Observes one stream value (duplicates are free).
  void Update(uint64_t key);

  /// Estimated number of distinct values seen. Exact (the current retained
  /// count) while fewer than k distinct hashes have been seen.
  double EstimateDistinct() const;

  /// Merges another sketch built with the same (k, seed): the result
  /// estimates the distinct count of the union of the two streams.
  void Merge(const KmvSketch& other);

  bool CompatibleWith(const KmvSketch& other) const {
    return k_ == other.k_ && seed_ == other.seed_;
  }

  size_t k() const { return k_; }
  uint64_t seed() const { return seed_; }
  /// Number of hash values currently retained (≤ k).
  size_t retained() const { return minima_.size(); }
  /// The retained minima in ascending order (serialization support).
  const std::set<uint64_t>& minima() const { return minima_; }

  /// Replaces the retained set (deserialization support). `minima` must be
  /// strictly ascending with at most k entries; throws std::invalid_argument
  /// otherwise.
  void LoadMinima(const std::vector<uint64_t>& minima);

 private:
  uint64_t Hash(uint64_t key) const;

  size_t k_;
  uint64_t seed_;
  std::set<uint64_t> minima_;  // the retained smallest hash values
};

/// Bottom-k sketch that retains the *keys* (and their kept-occurrence
/// counts) alongside the k minimum hashes, enabling Cohen–Kaplan
/// subpopulation-weight estimation (src/core/subpop_estimators.h): the
/// retained entries form a uniform-by-hash sample of the distinct keys, and
/// predicate-filtered weight sums scaled by the inclusion threshold
/// estimate the total weight of any subpopulation chosen after the fact.
///
/// Weight exactness (load-bearing for bit-exact merges): the inclusion
/// threshold (the k-th smallest hash) only shrinks as the stream grows, so
/// any currently retained key has been retained since its first occurrence
/// — its weight is the exact count of occurrences fed to Update(). Under
/// Merge(), an entry below the union's threshold was retained with full
/// weight in every input that saw its key, so merged weights are exact too,
/// making the merged sketch independent of how the stream was partitioned.
class KeyedKmvSketch {
 public:
  struct Entry {
    uint64_t hash = 0;
    uint64_t key = 0;
    uint64_t weight = 0;  ///< exact kept-occurrence count for this key
  };

  /// `k` >= 2 entries retained; `seed` fixes the hash.
  KeyedKmvSketch(size_t k, uint64_t seed);

  /// Observes one occurrence of `key` (weight 1 per call).
  void Update(uint64_t key);

  /// Merges another sketch built with the same (k, seed).
  void Merge(const KeyedKmvSketch& other);

  bool CompatibleWith(const KeyedKmvSketch& other) const {
    return k_ == other.k_ && seed_ == other.seed_;
  }

  /// Estimated distinct key count (same estimator as KmvSketch).
  double EstimateDistinct() const;

  /// True once k entries are retained (the sample is a proper bottom-k
  /// subset rather than the full key set).
  bool saturated() const { return entries_.size() >= k_; }

  /// Normalized inclusion threshold u in (0, 1]: the fraction of hash
  /// space below which entries are retained. 1 while unsaturated.
  double Threshold01() const;

  size_t k() const { return k_; }
  uint64_t seed() const { return seed_; }
  size_t retained() const { return entries_.size(); }
  /// Retained entries in ascending hash order (serialization and
  /// estimation support).
  std::vector<Entry> Entries() const;

  /// Replaces the retained entries (deserialization support). `entries`
  /// must be strictly ascending by hash with weights >= 1 and at most k
  /// items; throws std::invalid_argument otherwise.
  void LoadEntries(const std::vector<Entry>& entries);

 private:
  size_t k_;
  uint64_t seed_;
  std::map<uint64_t, Entry> entries_;  // keyed by hash, ascending
};

}  // namespace sketchsample

#endif  // SKETCHSAMPLE_SKETCH_KMV_H_
