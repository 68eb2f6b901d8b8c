// Sharded multi-threaded ingest engine: the streaming path behind
// `sketchsample stream`, `serve` and `offline`. One shard is the
// single-lane case of the same code, not a separate mode.
//
// Topology: one router thread pulls NextChunk batches from the source and
// deals them round-robin across N worker lanes, each lane a pair of bounded
// SPSC rings (src/util/spsc_queue.h) — a work ring carrying filled chunks
// and a free ring recycling their buffers, so the steady state allocates
// nothing. Each worker sheds tuples with the stateless positional Bernoulli
// sampler (src/sampling/bernoulli.h), feeds survivors into its own partial
// sketch (a copy of the prototype; copies share the immutable ξ/hash
// state), and a final merge stage folds the partials through the sketches'
// Merge path.
//
// Determinism at any shard count: the shed decision for the tuple at
// absolute position i is a pure function of (root seed, i, p), so every
// routing of the stream across shards keeps exactly the same tuples; and
// because integer-weight sketch counters are exact sums of per-tuple
// contributions, the merged counters are bit-identical no matter how the
// stream was partitioned. Same root seed at 1, 2, 3, or 8 shards → the
// same merged estimate to the last bit (the determinism test matrix
// asserts this).
//
// Backpressure: when a lane has no free buffer, the router spins (yield)
// and counts the event. In wall-clock mode (the controller's target_tps,
// no fixed capacity_per_window) the congested fraction of the window
// discounts the capacity handed to the ShedController, so a full ring reads
// as "the sink cannot keep up" and shedding stays honest under overload.
// That capacity is already a timing measurement, so the spin count adds no
// new nondeterminism; a fixed per-window budget is never discounted, which
// keeps budget runs a pure function of the stream at any scheduling.
//
// Checkpoint/recovery: at quiesced chunk boundaries (router waits until
// every routed chunk is processed) the engine writes the merged cut — the
// realized counts and every sketch with all lane partials merged in — as
// the one entry of the checkpoint's shard section (src/stream/checkpoint.h,
// flag bit 2), so the bytes do not depend on the shard count. Restore
// merges however many entries it finds into the engine's base sketches, so
// a kill-and-resume is bit-exact at any shard count, from this writer's
// checkpoints and from older ones with one entry per shard alike. The
// positional sampler is stateless, so no RNG state needs checkpointing.
#ifndef SKETCHSAMPLE_STREAM_SHARD_ENGINE_H_
#define SKETCHSAMPLE_STREAM_SHARD_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "src/sketch/kll.h"
#include "src/sketch/kmv.h"
#include "src/stream/checkpoint.h"
#include "src/stream/faults.h"
#include "src/stream/pipeline.h"
#include "src/stream/shed_controller.h"
#include "src/stream/source.h"
#include "src/util/once_latch.h"

namespace sketchsample {

/// Fold cadence for the quantile run buffers (tuples; phase-locked to
/// absolute stream offsets like windows). Bounds per-lane buffer memory;
/// the fold boundary itself has no effect on the KLL state.
inline constexpr uint64_t kShardQuantileFoldEvery = 65536;

/// Configuration for one ShardEngine.
struct ShardEngineOptions {
  /// Worker lanes; 0 is clamped to 1.
  size_t shards = 1;
  /// Tuples per routed chunk.
  size_t chunk_tuples = kPipelineChunk;
  /// Chunk buffers per lane (ring capacity; rounded up to a power of two).
  /// A lane with no free buffer is backpressure.
  size_t queue_chunks = 8;
  /// Initial keep-probability for the positional shed stage.
  double shed_p = 1.0;
  /// Root seed: drives the positional sampler and all per-shard derived
  /// streams (MixSeed splits), so every run is a function of this value.
  uint64_t seed = 0;
  /// Adaptive shedding: when set, ticked every options().window_tuples
  /// routed tuples with the realized (offered, kept) deltas; in wall-clock
  /// mode ring congestion discounts the capacity (see file comment).
  ShedController* controller = nullptr;
  /// Stop after this many tuples this run (0 = run to end of stream).
  uint64_t max_tuples = 0;
  /// Zero-length pulls to ride out while the source stalls. When the budget
  /// is exhausted the run stops with stats.stalled set and the state built
  /// so far stays queryable: a dead source degrades the answer, it does
  /// not hang the engine.
  uint64_t stall_retries = 64;
  /// Checkpointing: every checkpoint_every tuples (at the next quiesced
  /// chunk boundary), write the merged engine state to checkpoint_sink.
  CheckpointSink* checkpoint_sink = nullptr;
  uint64_t checkpoint_every = 0;
  /// Per-worker push-path fault injection (corrupt/duplicate/reorder after
  /// the shed stage). Each worker gets an independent MixSeed(fault_seed,
  /// shard) fault stream and a per-shard metric label, so
  /// stream.faults.injected stays the exact sum of the per-shard counters.
  const FaultProfile* fault_profile = nullptr;
  uint64_t fault_seed = 0;
  /// Auxiliary distinct counting: when > 0 every worker lane keeps a
  /// KmvSketch(distinct_k, ShardDistinctSeed(seed)) over exactly the tuples
  /// surviving the positional shed (before fault injection, so the count
  /// describes the sampled stream, not the corrupted one). Partials merge
  /// like the primary sketch — same seed at any shard count gives the same
  /// union — and ride in checkpoint flag-bit-3 blobs.
  size_t distinct_k = 0;
  /// Quantile queries: when > 0 the engine maintains one KllSketch
  /// (quantile_k, ShardQuantileSeed(seed)) over the kept stream. KLL
  /// compaction is order-dependent, so per-lane partials would NOT be
  /// bit-exact across shard counts; instead each lane buffers its kept
  /// values with one survivor count per chunk. At every quiesced fold
  /// boundary (snapshots, checkpoints, every kShardQuantileFoldEvery tuples
  /// and the end of a run) the router hands those runs to lane 0, which
  /// replays them into the single engine-level sketch in the order the
  /// router dealt the chunks, which is stream order, while the router cuts
  /// the snapshot. The KLL state is then a pure function of the kept prefix
  /// in stream order — identical at any shard count, chunking, or resume.
  size_t quantile_k = 0;
  /// Subpopulation queries: when > 0 every worker lane keeps a
  /// KeyedKmvSketch(subpop_k, ShardSubpopSeed(seed)) over the tuples
  /// surviving the positional shed (before fault injection, like
  /// distinct_k). Keyed bottom-k merges are exact (see src/sketch/kmv.h),
  /// so partials union bit-exactly at any shard count and ride in
  /// checkpoint flag-bit-4 blobs.
  size_t subpop_k = 0;
};

/// Hash seed of the auxiliary distinct counter, derived deterministically
/// from the engine's root seed so an offline run reproduces the service's
/// KMV bit-for-bit from configuration alone.
uint64_t ShardDistinctSeed(uint64_t root_seed);
/// Compaction-coin seed of the engine-level KLL quantile sketch (same
/// derivation discipline as ShardDistinctSeed).
uint64_t ShardQuantileSeed(uint64_t root_seed);
/// Hash seed of the per-lane keyed-KMV subpopulation sketches.
uint64_t ShardSubpopSeed(uint64_t root_seed);

/// Query-form view of one snapshot: the values every answer of an
/// unchanged snapshot would otherwise re-derive — the primary sketch's
/// self-join estimate, the KLL's sorted cumulative view, the keyed-KMV
/// entries and the answers' snapshot-constant JSON members. Each sits
/// behind its own OnceLatch: the first reader that needs it derives it, and
/// every later reader on any thread shares the result. Nothing is derived
/// when the snapshot is cut, so the router thread pays one small
/// allocation per publish and no estimator or formatting work.
///
/// OnceLatch can be neither copied nor moved, so the latches live behind a
/// pointer. A copy starts with an empty view (its members may be edited
/// before it is read); a move carries the derived values along with the
/// members they were derived from. A moved-from view holds nothing and
/// must be assigned before it is read again.
class SnapshotQueryView {
 public:
  struct Latches {
    OnceLatch<double> self_join;
    OnceLatch<KllSortedView> quantile;
    OnceLatch<std::vector<KeyedKmvSketch::Entry>> subpop;
    /// The members every service answer writes after its endpoint name —
    /// position, kept, sequence, p and realized_p — as compact JSON text,
    /// formatted by the service (src/service/service.cc).
    OnceLatch<std::string> answer_members;
  };

  SnapshotQueryView() : latches_(std::make_unique<Latches>()) {}
  SnapshotQueryView(const SnapshotQueryView&) : SnapshotQueryView() {}
  SnapshotQueryView& operator=(const SnapshotQueryView&) {
    latches_ = std::make_unique<Latches>();
    return *this;
  }
  SnapshotQueryView(SnapshotQueryView&&) noexcept = default;
  SnapshotQueryView& operator=(SnapshotQueryView&&) noexcept = default;

  /// The latches: derived state of an otherwise immutable snapshot, the one
  /// thing readers of a published snapshot write (src/service/snapshot.h).
  Latches& latches() const { return *latches_; }

 private:
  std::unique_ptr<Latches> latches_;
};

/// One consistent engine snapshot, published at a quiesced chunk boundary:
/// everything a query needs — the merged sketch over the kept prefix, the
/// optional companions, and the realized counts the Prop 13/14 corrections
/// scale by. Self-contained by value: readers on other threads must never
/// chase pointers into the live engine. The service publishes it as is
/// (ServiceSnapshot, src/service/service.h).
template <typename SketchT>
struct ShardEngineSnapshot {
  SketchT sketch;                        ///< base + every lane partial, merged
  std::optional<KmvSketch> distinct;     ///< set iff options.distinct_k > 0
  std::optional<KllSketch> quantile;     ///< set iff options.quantile_k > 0
  std::optional<KeyedKmvSketch> subpop;  ///< set iff options.subpop_k > 0
  uint64_t position = 0;  ///< absolute stream offset the snapshot covers
  uint64_t kept = 0;      ///< tuples surviving the shed up to `position`
  /// 1-based publication counter (0: engine state before any publish).
  uint64_t sequence = 0;
  double p = 1.0;         ///< shed rate in force when the snapshot was cut
  /// Derived once per snapshot by its first reader (see SnapshotQueryView).
  SnapshotQueryView view = {};

  /// Realized sampling rate p̂ over the covered prefix.
  double realized_p() const {
    return position > 0
               ? static_cast<double>(kept) / static_cast<double>(position)
               : p;
  }

  /// sketch.EstimateSelfJoin(), derived once.
  double self_join() const {
    return view.latches().self_join.Get(
        [this] { return sketch.EstimateSelfJoin(); });
  }
  /// KllSortedView(*quantile), derived once; requires `quantile`.
  const KllSortedView& quantile_view() const {
    return view.latches().quantile.Get(
        [this] { return KllSortedView(*quantile); });
  }
  /// subpop->Entries(), derived once; requires `subpop`.
  const std::vector<KeyedKmvSketch::Entry>& subpop_entries() const {
    return view.latches().subpop.Get([this] { return subpop->Entries(); });
  }
};

/// Receives engine snapshots. Publish is called on the router thread (the
/// engine's single writer) while all lanes are quiesced; implementations
/// hand the value off to readers (src/service/snapshot.h) and must not
/// block for long — ingest is stalled meanwhile.
template <typename SketchT>
class ShardSnapshotHook {
 public:
  virtual ~ShardSnapshotHook() = default;
  virtual void Publish(ShardEngineSnapshot<SketchT> snapshot) = 0;
};

/// Result of one ShardEngine::Run.
struct ShardEngineStats {
  uint64_t tuples = 0;       ///< tuples routed this run
  uint64_t chunks = 0;       ///< chunks routed this run
  uint64_t kept = 0;         ///< tuples surviving the shed stage this run
  double seconds = 0;        ///< wall-clock time of the run
  uint64_t stall_retries = 0;  ///< zero-length pulls ridden out
  bool stalled = false;      ///< source died / stall budget exhausted
  bool ended = false;        ///< source reported clean end of stream
  uint64_t windows = 0;      ///< controller windows closed
  uint64_t checkpoints = 0;  ///< checkpoints written
  uint64_t snapshots = 0;    ///< snapshots published to the hook
  double final_p = 1.0;      ///< shed rate when the run stopped
  uint64_t ring_full_retries = 0;  ///< router spins waiting for a buffer
  uint64_t quiesces = 0;     ///< router drain barriers (windows/checkpoints)
  uint64_t merges = 0;       ///< partials folded by the merge stage
  uint64_t quantile_folds = 0;  ///< stream-order folds into the KLL
  std::vector<uint64_t> shard_tuples;  ///< per-shard tuples received
  std::vector<uint64_t> shard_kept;    ///< per-shard tuples kept
  std::vector<uint64_t> shard_faults;  ///< per-shard injected faults
  double TuplesPerSecond() const {
    return seconds > 0 ? static_cast<double>(tuples) / seconds : 0.0;
  }
};

/// N-worker sharded ingest engine over any mergeable sketch. One-shot by
/// design but re-runnable: a second Run continues from the merged state at
/// the position where the first stopped (same semantics as resuming from a
/// checkpoint taken at that boundary).
template <typename SketchT>
class ShardEngine {
 public:
  /// `prototype` fixes the sketch configuration; every worker partial and
  /// the merged result are copies of it (sharing immutable ξ/hash state).
  /// Taken by value and moved in, so a caller passing a temporary builds
  /// no extra copy.
  ShardEngine(SketchT prototype, const ShardEngineOptions& options);
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Restores engine state from a shard-section checkpoint: merges every
  /// shard partial into the base sketch, restores the shed rate and
  /// realized counts, restores the controller (when both the checkpoint
  /// and options carry one), and fast-forwards `source` past the
  /// checkpointed position. Throws CheckpointError when the checkpoint has
  /// no shard section, lacks a section an enabled sketch needs, holds an
  /// incompatible or corrupt sketch, or the source ends before the
  /// checkpointed position; the engine state is then left as it was. The
  /// restored engine may run any shard count — resume stays bit-exact.
  void Restore(const PipelineCheckpoint& cp, StreamSource& source);

  /// Pumps `source` dry (or to max_tuples / stall death): routes chunks to
  /// the workers, ticks the controller at window boundaries, writes
  /// checkpoints, then joins the workers and merges their partials.
  ShardEngineStats Run(StreamSource& source);

  /// The merged sketch: restored base plus every partial folded in. Valid
  /// after Run (before the first Run: just the restored/prototype state).
  const SketchT& merged() const { return *std::get<0>(slots_).base; }

  /// Current keep-probability of the positional shed stage.
  double p() const { return p_; }
  /// Realized totals across restores and runs — what the Prop 13/14
  /// corrections scale by.
  uint64_t total_seen() const { return total_seen_; }
  uint64_t total_kept() const { return total_kept_; }

  /// The merged auxiliary distinct counter (set iff options.distinct_k > 0);
  /// same validity window as merged().
  const std::optional<KmvSketch>& distinct() const {
    return std::get<1>(slots_).base;
  }

  /// The engine-level KLL quantile sketch (set iff options.quantile_k > 0),
  /// fed with the kept stream in position order; same validity window as
  /// merged().
  const std::optional<KllSketch>& quantile() const { return quantile_; }

  /// The merged keyed-KMV subpopulation sketch (set iff
  /// options.subpop_k > 0); same validity window as merged().
  const std::optional<KeyedKmvSketch>& subpop() const {
    return std::get<2>(slots_).base;
  }

  /// The engine state by value at position total_seen(), stamped with the
  /// last publication's sequence number (0 before any). Run publishes
  /// exactly this when it stops; same validity window as merged().
  ShardEngineSnapshot<SketchT> Snapshot() const;

  /// Registers a snapshot consumer: every `every_tuples` routed tuples (at
  /// the next quiesced chunk boundary, phase-locked to absolute stream
  /// offsets exactly like windows and checkpoints) plus once when Run
  /// stops, the engine publishes a ShardEngineSnapshot. Pass nullptr to
  /// detach. Call only between runs — the hook is read by the router
  /// thread.
  void SetSnapshotHook(ShardSnapshotHook<SketchT>* hook,
                       uint64_t every_tuples);

 private:
  struct Lane;  // worker lane: rings, thread, partials (shard_engine.cc)

  // A sketch every lane keeps a partial of, merged by union: the primary
  // sketch (slot 0, the one the fault stage feeds) and the KMV-style
  // companions. A slot names how its sketch is built (the prototype every
  // partial and base copies), where it rides in a checkpoint and how it
  // loads; each lane-partial operation of the engine is one loop over
  // slots_.
  template <typename T>
  struct Slot {
    const char* noun;  // names the sketch in CheckpointError messages
    bool PipelineCheckpoint::*section;                 // its flag bit
    std::vector<uint8_t> ShardCheckpointState::*blob;  // in each entry
    T (*deserialize)(const std::vector<uint8_t>&);
    std::optional<T> proto;   // engaged iff the slot is enabled
    std::optional<T> base{};  // restored base, then Run's merged result
  };
  // One `Of<T>` per slot, in slot order: primary, distinct, subpop.
  template <template <typename> class Of>
  using PerSlot = std::tuple<Of<SketchT>, Of<KmvSketch>, Of<KeyedKmvSketch>>;

  // The kept total across the restored base and every lane; lanes
  // quiesced (or joined).
  uint64_t KeptTotal(const std::vector<std::unique_ptr<Lane>>& lanes) const;

  // The bases with every lane's partials merged in, at absolute position
  // `position`, as a snapshot stamped with the current sequence number.
  ShardEngineSnapshot<SketchT> Cut(
      const std::vector<std::unique_ptr<Lane>>& lanes,
      uint64_t position) const;

  // Builds one checkpoint at absolute position `total` from quiesced lanes:
  // each slot's merged blob before it waits for lane 0's fold, then the KLL.
  void WriteCheckpoint(const std::vector<std::unique_ptr<Lane>>& lanes,
                       uint64_t total, ShardEngineStats& stats) const;

  // Builds one snapshot at absolute position `total` from quiesced lanes
  // and hands it to the hook.
  void PublishSnapshot(const std::vector<std::unique_ptr<Lane>>& lanes,
                       uint64_t total, ShardEngineStats& stats);

  // Replays every lane's fold buffers (the kept runs the router took at
  // the last fold boundary) into the engine-level KLL in the order the
  // router dealt them, starting at `first_lane` (the lane dealt the first
  // chunk since the fold before), then empties them. Runs on lane 0's
  // thread at a fold marker, and on the router once the lanes are joined.
  void FoldQuantile(const std::vector<std::unique_ptr<Lane>>& lanes,
                    size_t first_lane);

  // Spins until lane 0 has processed everything routed to it, the last
  // fold marker included; the engine-level KLL is then safe to read. Not a
  // quiesce: the other lanes are not waited for. No-op without lanes.
  void AwaitFold(const std::vector<std::unique_ptr<Lane>>& lanes) const;

  ShardEngineOptions options_;
  PerSlot<Slot> slots_;
  double p_;
  // Realized totals; total_seen_ is also the absolute position Run
  // continues from.
  uint64_t total_seen_ = 0;
  uint64_t total_kept_ = 0;
  // Engine-level quantile sketch, fed in stream order by FoldQuantile (run
  // by lane 0 while the router cuts; KLL partials would not merge
  // bit-exactly). Written only by the fold; the router reads it after
  // AwaitFold. Engaged iff options.quantile_k > 0.
  std::optional<KllSketch> quantile_;
  ShardSnapshotHook<SketchT>* snapshot_hook_ = nullptr;
  uint64_t snapshot_every_ = 0;
  uint64_t snapshot_sequence_ = 0;
};

extern template class ShardEngine<AgmsSketch>;
extern template class ShardEngine<FagmsSketch>;
extern template class ShardEngine<CountMinSketch>;
extern template class ShardEngine<FastCountSketch>;
extern template class ShardEngine<KmvSketch>;

}  // namespace sketchsample

#endif  // SKETCHSAMPLE_STREAM_SHARD_ENGINE_H_
