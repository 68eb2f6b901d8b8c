// Checkpoint/recovery for the sharded ingest engine
// (src/stream/shard_engine.h).
//
// A checkpoint is a self-describing byte buffer capturing everything the
// engine needs to resume bit-exactly after a crash: the absolute source
// position, the adaptive controller's state, and a shard section holding
// realized counts and sketches (reusing the src/sketch/serialize wire
// format as embedded blobs). The engine writes one shard entry, its merged
// cut, so the bytes do not depend on its worker count; the format carries
// any number of entries, and a restore merges them all, so checkpoints
// written with one entry per worker still load. Because every
// component is a deterministic function of (seed, consumed prefix) —
// shedding is positional, so no sampler RNG state exists to save —
// restoring the states and fast-forwarding a freshly built source past
// `source_tuples` reproduces the uninterrupted run's sketch contents and
// estimate bit-for-bit; the kill-and-resume tests assert exact equality,
// not approximation.
//
// Wire format (little-endian, fixed-width):
//
//   magic "SKCP" (4) | version u32 | source_tuples u64 | flags u8 |
//   [shed state: p f64, skip u64, seen u64, forwarded u64, has_skipper u8,
//    coin_rng u64×4, skip_rng u64×4]            — iff flags bit 0
//   [controller state: p f64, backlog f64, windows u64, offered u64,
//    kept u64]                                   — iff flags bit 1
//   [shard section: shard_p f64, shard_count u64, then per shard:
//    seen u64, kept u64, sketch_len u64, sketch bytes,
//    (distinct_len u64, distinct bytes — iff flags bit 3)]  — iff flags bit 2
//   [quantile/subpop section: kll_len u64, kll bytes (0 = quantile
//    disabled), subpop_count u64 (0 or == shard_count), then per shard:
//    subpop_len u64, subpop bytes]                — iff flags bit 4
//   sketch_len u64 | sketch bytes (inner format: src/sketch/serialize.h) |
//   crc32 u32 over every preceding byte
//
// Flag bit 0 is a legacy section (a stateful coin/skip shed stage's RNG
// states). Nothing writes it and nothing restores from it; the codec still
// reads and writes it so committed blobs carrying it round-trip byte for
// byte, and the engine refuses such a checkpoint (it has no shard section).
//
// Flag bit 3 (shard-entry distinct blobs) extends each shard entry with the
// auxiliary KMV distinct counter and is only valid together with bit 2;
// checkpoints written before the service existed simply lack the bit and
// still load.
//
// Flag bit 4 (quantile/subpop section) carries the engine-level KLL
// quantile sketch — a single blob outside the shard entries, because the
// engine folds kept tuples into it in stream-position order
// (src/stream/shard_engine.cc) — and one keyed-KMV subpopulation sketch
// per shard entry. Only valid together with bit 2; older checkpoints
// simply lack the bit and still load.
//
// Deserialization validates magic, version, flags, lengths, value ranges,
// and the CRC32 footer, throwing CheckpointError on any mismatch — a
// corrupt or truncated checkpoint must never crash the process or load
// silently.
#ifndef SKETCHSAMPLE_STREAM_CHECKPOINT_H_
#define SKETCHSAMPLE_STREAM_CHECKPOINT_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/sketch/serialize.h"
#include "src/stream/shed_controller.h"
#include "src/util/rng.h"

namespace sketchsample {

/// Typed error for malformed, truncated, or corrupt checkpoint buffers.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Legacy shed-stage section (flag bit 0): plain data the codec carries so
/// old blobs round-trip; nothing restores from it.
struct ShedOperatorState {
  double p = 1.0;
  uint64_t skip = 0;
  uint64_t seen = 0;
  uint64_t forwarded = 0;
  bool has_skipper = false;
  Xoshiro256::State coin_rng{};
  Xoshiro256::State skip_rng{};
};

/// One shard entry of a sharded-engine checkpoint
/// (src/stream/shard_engine.h): realized counts and sketches as embedded
/// src/sketch/serialize.h blobs. The engine writes one entry, its merged
/// cut; older checkpoints carry one per worker, and a restore sums and
/// merges the entries either way.
struct ShardCheckpointState {
  uint64_t seen = 0;            ///< tuples this entry covers
  uint64_t kept = 0;            ///< of those, tuples surviving the shed
  std::vector<uint8_t> sketch;  ///< primary sketch blob (may be empty)
  /// Auxiliary KMV distinct-counter blob (flag bit 3; may be empty). Rides
  /// next to the primary sketch so a resumed engine keeps answering
  /// distinct-count queries over exactly the positionally-kept prefix.
  std::vector<uint8_t> distinct;
  /// Keyed-KMV subpopulation sketch blob (flag bit 4; may be empty).
  std::vector<uint8_t> subpop;
};

/// One recoverable engine snapshot.
struct PipelineCheckpoint {
  /// Tuples the source had emitted when the snapshot was taken; recovery
  /// fast-forwards a fresh source past this prefix (DiscardTuples).
  uint64_t source_tuples = 0;
  bool has_shed = false;  ///< legacy flag bit 0; see ShedOperatorState
  ShedOperatorState shed{};
  bool has_controller = false;
  ShedController::State controller{};
  /// Sharded-engine section (flag bit 2). `shard_p` is the positional shed
  /// rate in force at the snapshot; `shards` holds the engine's one merged
  /// entry (older checkpoints: one entry per worker). Because the engine's
  /// sampling is positional (partition-independent), a restore may merge
  /// all entries into any new shard layout — resume is bit-exact at any
  /// shard count.
  bool has_shards = false;
  double shard_p = 1.0;
  std::vector<ShardCheckpointState> shards;
  /// Set when the shard entries carry auxiliary distinct blobs (flag bit 3,
  /// requires has_shards).
  bool has_shard_distinct = false;
  /// Quantile/subpop section (flag bit 4, requires has_shards). `quantile`
  /// is the engine-level KLL blob (empty when quantile queries are
  /// disabled); `has_shard_subpop` marks keyed-KMV blobs in the shard
  /// entries' `subpop` fields.
  bool has_quantile_subpop = false;
  std::vector<uint8_t> quantile;
  bool has_shard_subpop = false;
  /// Top-level sketch blob (src/sketch/serialize.h format). The engine
  /// keeps its sketches in the shard section and leaves this empty; legacy
  /// blobs may carry one (PeekSketchKind identifies the type).
  std::vector<uint8_t> sketch;
};

std::vector<uint8_t> SerializeCheckpoint(const PipelineCheckpoint& cp);

/// Throws CheckpointError on any format, range, or checksum violation.
PipelineCheckpoint DeserializeCheckpoint(const std::vector<uint8_t>& bytes);

/// Where the engine delivers periodic checkpoints.
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;
  /// `bytes` is the serialized checkpoint; `source_tuples` its position.
  virtual void Write(const std::vector<uint8_t>& bytes,
                     uint64_t source_tuples) = 0;
};

/// Keeps only the most recent checkpoint in memory (tests, in-process
/// supervision).
class LatestCheckpointSink final : public CheckpointSink {
 public:
  void Write(const std::vector<uint8_t>& bytes,
             uint64_t source_tuples) override {
    bytes_ = bytes;
    source_tuples_ = source_tuples;
    ++writes_;
  }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  uint64_t source_tuples() const { return source_tuples_; }
  uint64_t writes() const { return writes_; }

 private:
  std::vector<uint8_t> bytes_;
  uint64_t source_tuples_ = 0;
  uint64_t writes_ = 0;
};

/// Persists each checkpoint to `path`, replacing the previous one via a
/// write-to-temporary-then-rename so a crash mid-write leaves the prior
/// checkpoint intact. Throws std::runtime_error on I/O failure.
class FileCheckpointSink final : public CheckpointSink {
 public:
  explicit FileCheckpointSink(std::string path) : path_(std::move(path)) {}
  void Write(const std::vector<uint8_t>& bytes,
             uint64_t source_tuples) override;

 private:
  std::string path_;
};

}  // namespace sketchsample

#endif  // SKETCHSAMPLE_STREAM_CHECKPOINT_H_
