#include "src/sketch/kmv.h"

#include <stdexcept>
#include <utility>

#include "src/util/metrics.h"
#include "src/util/rng.h"

namespace sketchsample {

double KmvThreshold01(uint64_t kth_hash) {
  return (static_cast<double>(kth_hash) + 1.0) /
         18446744073709551616.0;  // / 2^64
}

KmvSketch::KmvSketch(size_t k, uint64_t seed) : k_(k), seed_(seed) {
  if (k < 2) {
    throw std::invalid_argument("KMV needs k >= 2");
  }
}

uint64_t KmvSketch::Hash(uint64_t key) const {
  // Strong 64-bit mixing of (seed, key); collision probability 2^-64 is
  // negligible against the estimator's own ~1/sqrt(k) error.
  return MixSeed(seed_, key);
}

void KmvSketch::Update(uint64_t key) {
  SKETCHSAMPLE_METRIC_INC("sketch.kmv.updates");
  const uint64_t h = Hash(key);
  if (minima_.size() < k_) {
    minima_.insert(h);
    return;
  }
  const auto largest = std::prev(minima_.end());
  if (h < *largest && minima_.insert(h).second) {
    minima_.erase(std::prev(minima_.end()));
  }
}

double KmvSketch::EstimateDistinct() const {
  if (minima_.size() < k_) {
    // Fewer than k distinct hashes: the retained count is exact.
    return static_cast<double>(minima_.size());
  }
  // u = normalized k-th minimum; (k-1)/u is the unbiased estimator.
  return static_cast<double>(k_ - 1) /
         KmvThreshold01(*std::prev(minima_.end()));
}

void KmvSketch::LoadMinima(const std::vector<uint64_t>& minima) {
  if (minima.size() > k_) {
    throw std::invalid_argument("KMV load exceeds k retained values");
  }
  std::set<uint64_t> loaded;
  for (size_t i = 0; i < minima.size(); ++i) {
    if (i > 0 && minima[i] <= minima[i - 1]) {
      throw std::invalid_argument("KMV load requires strictly ascending hashes");
    }
    loaded.insert(loaded.end(), minima[i]);
  }
  minima_ = std::move(loaded);
}

void KmvSketch::Merge(const KmvSketch& other) {
  if (!CompatibleWith(other)) {
    throw std::invalid_argument("merge of incompatible KMV sketches");
  }
  SKETCHSAMPLE_METRIC_INC("sketch.kmv.merges");
  for (uint64_t h : other.minima_) {
    minima_.insert(h);
  }
  while (minima_.size() > k_) {
    minima_.erase(std::prev(minima_.end()));
  }
}

KeyedKmvSketch::KeyedKmvSketch(size_t k, uint64_t seed)
    : k_(k), seed_(seed) {
  if (k < 2) {
    throw std::invalid_argument("keyed KMV needs k >= 2");
  }
}

void KeyedKmvSketch::Update(uint64_t key) {
  SKETCHSAMPLE_METRIC_INC("sketch.kmv.keyed_updates");
  const uint64_t h = MixSeed(seed_, key);
  const bool full = entries_.size() >= k_;
  // A full sketch retains no hash above its largest, and admits none: skip
  // the search. An evicted key can never re-enter: its hash is above the
  // threshold and the threshold only shrinks — which is what keeps retained
  // weights exact.
  if (full && h > entries_.rbegin()->first) return;
  const auto it = entries_.find(h);
  if (it != entries_.end()) {
    // Same hash implies same key (collisions are 2^-64 events, negligible
    // against the estimator's own error); the key has been retained since
    // its first occurrence, so counting keeps the weight exact.
    ++it->second.weight;
    return;
  }
  // Full: h lies below the largest retained hash, which it displaces.
  if (full) entries_.erase(std::prev(entries_.end()));
  entries_.emplace(h, Entry{h, key, 1});
}

double KeyedKmvSketch::EstimateDistinct() const {
  if (entries_.size() < k_) {
    return static_cast<double>(entries_.size());
  }
  return static_cast<double>(k_ - 1) / Threshold01();
}

double KeyedKmvSketch::Threshold01() const {
  if (entries_.size() < k_) return 1.0;
  return KmvThreshold01(std::prev(entries_.end())->first);
}

std::vector<KeyedKmvSketch::Entry> KeyedKmvSketch::Entries() const {
  std::vector<Entry> out;
  out.reserve(entries_.size());
  for (const auto& [hash, entry] : entries_) out.push_back(entry);
  return out;
}

void KeyedKmvSketch::LoadEntries(const std::vector<Entry>& entries) {
  if (entries.size() > k_) {
    throw std::invalid_argument("keyed KMV load exceeds k retained entries");
  }
  std::map<uint64_t, Entry> loaded;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0 && entries[i].hash <= entries[i - 1].hash) {
      throw std::invalid_argument(
          "keyed KMV load requires strictly ascending hashes");
    }
    if (entries[i].weight == 0) {
      throw std::invalid_argument("keyed KMV load with zero weight");
    }
    loaded.emplace_hint(loaded.end(), entries[i].hash, entries[i]);
  }
  entries_ = std::move(loaded);
}

void KeyedKmvSketch::Merge(const KeyedKmvSketch& other) {
  if (!CompatibleWith(other)) {
    throw std::invalid_argument("merge of incompatible keyed KMV sketches");
  }
  SKETCHSAMPLE_METRIC_INC("sketch.kmv.keyed_merges");
  for (const auto& [hash, entry] : other.entries_) {
    const auto it = entries_.find(hash);
    if (it != entries_.end()) {
      it->second.weight += entry.weight;
    } else {
      entries_.emplace(hash, entry);
    }
  }
  while (entries_.size() > k_) {
    entries_.erase(std::prev(entries_.end()));
  }
}

}  // namespace sketchsample
