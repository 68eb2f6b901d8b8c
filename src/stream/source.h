// Stream sources: where tuples come from.
//
// A minimal streaming substrate in the shape §VI describes: a source emits
// join-attribute values, the ingest engine (src/stream/shard_engine.h)
// consumes them.
// Sources are pull-based single-pass iterators so unbounded synthetic
// streams never materialize.
#ifndef SKETCHSAMPLE_STREAM_SOURCE_H_
#define SKETCHSAMPLE_STREAM_SOURCE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/data/zipf.h"
#include "src/util/rng.h"

namespace sketchsample {

/// Pull-based tuple source. Next() yields values until exhaustion.
class StreamSource {
 public:
  virtual ~StreamSource() = default;

  /// The next tuple's join-attribute value, or nullopt at end of stream.
  virtual std::optional<uint64_t> Next() = 0;

  /// Fills out[0..max_n) with up to `max_n` tuples and returns how many
  /// were produced; 0 means end of stream. The default pulls Next() per
  /// tuple; concrete sources override it to fill chunks without per-tuple
  /// virtual dispatch, which is what lets the engine route whole chunks.
  virtual size_t NextChunk(uint64_t* out, size_t max_n) {
    size_t n = 0;
    while (n < max_n) {
      const auto value = Next();
      if (!value) break;
      out[n++] = *value;
    }
    return n;
  }

  /// Distinguishes "no data right now" from "end of stream" after a
  /// zero-length pull. A source that returned 0 from NextChunk (or nullopt
  /// from Next) while Stalled() is true may produce more tuples on a later
  /// pull; the engine retries such sources up to its stall budget instead
  /// of treating the stream as finished (src/stream/shard_engine.h).
  /// Sources that cannot stall keep the default.
  virtual bool Stalled() const { return false; }
};

/// Pulls and drops up to `n` tuples from `source`; returns how many were
/// actually discarded (fewer only at end of stream). Used by checkpoint
/// recovery to fast-forward a freshly constructed deterministic source past
/// the prefix a restored engine has already processed.
inline uint64_t DiscardTuples(StreamSource& source, uint64_t n) {
  uint64_t scratch[256];
  uint64_t discarded = 0;
  uint64_t stalled_pulls = 0;
  while (discarded < n) {
    const size_t want = static_cast<size_t>(
        std::min<uint64_t>(n - discarded, 256));
    const size_t got = source.NextChunk(scratch, want);
    if (got == 0) {
      // Tolerate bounded stalls, but never spin forever on a dead source.
      if (!source.Stalled() || ++stalled_pulls > 4096) break;
      continue;
    }
    stalled_pulls = 0;
    discarded += got;
  }
  return discarded;
}

/// Source over a materialized vector (e.g. a relation scan).
class VectorSource final : public StreamSource {
 public:
  explicit VectorSource(std::vector<uint64_t> values)
      : values_(std::move(values)) {}

  std::optional<uint64_t> Next() override {
    if (pos_ >= values_.size()) return std::nullopt;
    return values_[pos_++];
  }

  size_t NextChunk(uint64_t* out, size_t max_n) override {
    const size_t n = std::min(max_n, values_.size() - pos_);
    std::copy_n(values_.data() + pos_, n, out);
    pos_ += n;
    return n;
  }

 private:
  std::vector<uint64_t> values_;
  size_t pos_ = 0;
};

/// Synthetic source emitting `count` i.i.d. Zipf values — the generative
/// stream of §VI-B without materialization.
class ZipfSource final : public StreamSource {
 public:
  ZipfSource(size_t domain_size, double skew, uint64_t count, uint64_t seed)
      : sampler_(domain_size, skew), remaining_(count), rng_(seed) {}

  std::optional<uint64_t> Next() override {
    if (remaining_ == 0) return std::nullopt;
    --remaining_;
    return sampler_.Next(rng_);
  }

  size_t NextChunk(uint64_t* out, size_t max_n) override {
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(max_n, remaining_));
    for (size_t i = 0; i < n; ++i) out[i] = sampler_.Next(rng_);
    remaining_ -= n;
    return n;
  }

 private:
  ZipfSampler sampler_;
  uint64_t remaining_;
  Xoshiro256 rng_;
};

}  // namespace sketchsample

#endif  // SKETCHSAMPLE_STREAM_SOURCE_H_
