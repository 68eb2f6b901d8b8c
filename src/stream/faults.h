// Deterministic fault injection for the ingest path.
//
// Robustness claims are only as good as the failure modes they were tested
// against. This header provides seeded wrappers that inject the faults a
// production ingest path actually sees — corrupted values, duplicated and
// reordered tuples, short reads, bounded source stalls, and mid-stream
// source death — as pure functions of a 64-bit seed. Every run with the
// same seed, profile, and pull pattern produces the identical fault
// sequence, so a failing test prints its seed and the failure reproduces
// exactly.
//
// Stalls and death interact with the engine's retry policy
// (ShardEngineOptions::stall_retries): a bounded stall is ridden out by
// retrying the pull, while a dead source exhausts the retry budget and the
// engine degrades to a partial answer instead of hanging.
#ifndef SKETCHSAMPLE_STREAM_FAULTS_H_
#define SKETCHSAMPLE_STREAM_FAULTS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/stream/source.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"

namespace sketchsample {

/// What to inject and how often. Probabilities are per tuple (corrupt,
/// duplicate, reorder) or per pull (truncate); stall/death are positional.
struct FaultProfile {
  /// P[tuple value is XORed with random bits under corrupt_mask].
  double corrupt_prob = 0.0;
  uint64_t corrupt_mask = 0xFFULL;
  /// P[tuple is emitted twice].
  double duplicate_prob = 0.0;
  /// P[tuple is swapped with its predecessor inside the chunk].
  double reorder_prob = 0.0;
  /// P[a chunk pull is truncated to a random shorter length].
  double truncate_prob = 0.0;
  /// Every `stall_every` emitted tuples the source stalls for `stall_pulls`
  /// consecutive zero-length pulls (0 = never stall).
  uint64_t stall_every = 0;
  uint64_t stall_pulls = 0;
  /// After emitting this many tuples the source dies: it stalls forever
  /// (0 = never). A dead source is indistinguishable from an unbounded
  /// stall, which is exactly what the engine's retry budget is for.
  uint64_t die_after = 0;

  /// True when any fault can fire.
  bool Active() const;

  /// Named presets: "none", "mild" (rare corruption/duplication and short
  /// stalls), "harsh" (frequent everything plus truncated pulls). Throws
  /// std::invalid_argument for unknown names.
  static FaultProfile FromName(const std::string& name);
};

/// Wraps a StreamSource and injects faults on the pull path.
class FaultInjectingSource final : public StreamSource {
 public:
  /// `inner` must outlive this wrapper.
  FaultInjectingSource(StreamSource* inner, const FaultProfile& profile,
                       uint64_t seed);

  std::optional<uint64_t> Next() override;
  size_t NextChunk(uint64_t* out, size_t max_n) override;
  bool Stalled() const override { return stalled_; }

  /// Total faults injected so far, by any mechanism.
  uint64_t faults_injected() const { return faults_; }
  /// Tuples emitted downstream (post duplication/death).
  uint64_t emitted() const { return emitted_; }
  bool dead() const { return dead_; }

 private:
  size_t PullChunk(uint64_t* out, size_t max_n);

  StreamSource* inner_;
  FaultProfile profile_;
  Xoshiro256 rng_;
  std::vector<uint64_t> carry_;  // duplication overflow for the next pull
  uint64_t emitted_ = 0;
  uint64_t faults_ = 0;
  uint64_t next_stall_at_ = 0;   // emitted-count threshold for next episode
  uint64_t stall_left_ = 0;      // zero-length pulls left in this episode
  bool stalled_ = false;
  bool dead_ = false;
};

/// Injects tuple-level faults into the chunks a worker pushes to its
/// sketch (corrupt / duplicate / reorder; positional faults belong to the
/// source). It owns no downstream: OnTuples returns the faulted chunk and
/// the caller feeds it on.
///
/// Metrics: every injected fault counts toward the process-wide
/// "stream.faults.injected" counter, added once per chunk. When the
/// operator is given a shard label (the sharded engine instantiates one per
/// worker), each fault additionally increments
/// "stream.faults.injected.<label>" — so the global counter stays the exact
/// sum of the per-shard ones no matter how chunks were routed. The
/// per-shard counter is resolved through the registry explicitly rather
/// than via SKETCHSAMPLE_METRIC_*: the macro caches one function-local
/// Counter reference per call site, which would alias every instance's
/// per-shard counter to whichever label arrived first.
class FaultInjectingOperator final {
 public:
  /// `shard_label` tags the per-shard metric (e.g. "shard3"); empty for
  /// none.
  FaultInjectingOperator(const FaultProfile& profile, uint64_t seed,
                         std::string shard_label = "");

  /// Faults one chunk. The returned chunk stays valid until the next call.
  const std::vector<uint64_t>& OnTuples(const uint64_t* values, size_t n);

  uint64_t faults_injected() const { return faults_; }

 private:
  void CountFault();

  FaultProfile profile_;
  Xoshiro256 rng_;
  std::vector<uint64_t> scratch_;
  uint64_t faults_ = 0;
  std::string shard_label_;
  // Per-shard registry counter, resolved on the first fault with metrics
  // enabled (GetCounter takes a lock; faults are rare enough that resolving
  // lazily keeps the no-fault path allocation-free).
  metrics::Counter* shard_counter_ = nullptr;
};

/// Seed override hook for CI: reads the decimal SKETCHSAMPLE_FAULT_SEED
/// environment variable, falling back to `fallback` when unset or
/// malformed. The chosen seed must be printed by any failing test so the
/// exact fault sequence reproduces.
uint64_t FaultSeedFromEnv(uint64_t fallback);

}  // namespace sketchsample

#endif  // SKETCHSAMPLE_STREAM_FAULTS_H_
