#include "src/stream/shard_engine.h"

#include <algorithm>
#include "src/util/atomics_policy.h"
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sampling/bernoulli.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"
#include "src/util/spsc_queue.h"
#include "src/util/timer.h"

namespace sketchsample {

namespace {

// One routed batch. The buffer cycles between the router and one worker
// through the lane's two rings; `p` rides along so a retarget at a window
// boundary never races a chunk already in flight (the worker sheds with the
// rate that was in force when the chunk was routed).
struct Chunk {
  std::vector<uint64_t> values;
  size_t count = 0;    // live tuples in `values`
  uint64_t base = 0;   // absolute position of values[0]
  double p = 1.0;      // keep-probability for this chunk
  bool stop = false;   // shutdown sentinel: worker exits, buffer not recycled
  bool fold = false;   // fold marker: lane 0 runs the KLL fold, not recycled
};

// A worker's feed into one partial sketch: an Operator, so the
// fault-injection wrapper (also an Operator) can sit in front of it. One
// virtual call per chunk; the per-tuple loop runs at the concrete type,
// through the sketch's widest interface.
template <typename SketchT>
class SketchSinkOp final : public Operator {
 public:
  explicit SketchSinkOp(SketchT* sketch) : sketch_(sketch) {}
  void OnTuples(const uint64_t* values, size_t n) override {
    if constexpr (requires { sketch_->UpdateBatch(values, n); }) {
      sketch_->UpdateBatch(values, n);
    } else {
      for (size_t i = 0; i < n; ++i) sketch_->Update(values[i]);
    }
  }

 private:
  SketchT* sketch_;
};

// Typed deserializer of each primary sketch type (overload set in place of
// a traits class).
auto Deserializer(const AgmsSketch&) { return &DeserializeAgms; }
auto Deserializer(const FagmsSketch&) { return &DeserializeFagms; }
auto Deserializer(const CountMinSketch&) { return &DeserializeCountMin; }
auto Deserializer(const FastCountSketch&) { return &DeserializeFastCount; }
auto Deserializer(const KmvSketch&) { return &DeserializeKmv; }

// A companion sketch: (k, seed), engaged iff k > 0. The sketch validates k
// itself; the derived seed makes it a pure function of (root seed, kept
// prefix) like everything else.
template <typename T>
std::optional<T> Companion(size_t k, uint64_t seed) {
  if (k == 0) return std::nullopt;
  return std::optional<T>(std::in_place, k, seed);
}

// Calls f(element, index) for each element of a per-slot tuple, the index
// as a std::integral_constant so the body reaches the same slot's entry in
// another per-slot tuple (std::get<i>) at its concrete type.
template <typename Tuple, typename F>
void ForEachSlot(Tuple& tuple, F&& f) {
  [&]<size_t... I>(std::index_sequence<I...>) {
    (f(std::get<I>(tuple), std::integral_constant<size_t, I>{}), ...);
  }(std::make_index_sequence<std::tuple_size_v<std::remove_const_t<Tuple>>>{});
}

CheckpointError MissingSection(const char* noun) {
  return CheckpointError(std::string("checkpoint has no ") + noun +
                         " section but the engine has " + noun +
                         " enabled; resume would silently drop it");
}

// Loads one checkpoint blob as T and checks it against the engine's
// configuration (`like`); `noun` names the sketch in the error.
template <typename T>
T LoadBlob(const std::vector<uint8_t>& blob,
           T (*deserialize)(const std::vector<uint8_t>&), const T& like,
           const char* noun) {
  T sketch = [&] {
    try {
      return deserialize(blob);
    } catch (const std::invalid_argument& error) {
      throw CheckpointError(std::string("checkpoint ") + noun +
                            " blob invalid: " + error.what());
    }
  }();
  if (!like.CompatibleWith(sketch)) {
    throw CheckpointError(std::string("checkpoint ") + noun +
                          " sketch incompatible with engine configuration "
                          "(k, seed or shape mismatch)");
  }
  return sketch;
}

}  // namespace

uint64_t ShardDistinctSeed(uint64_t root_seed) {
  // Fixed salt ("KMVAUX00") splits the distinct hash stream off the root
  // seed, the same MixSeed discipline as the per-shard fault streams.
  return MixSeed(root_seed, 0x4b4d56415558'3030ULL);
}

uint64_t ShardQuantileSeed(uint64_t root_seed) {
  // Fixed salt ("KLLQNT00").
  return MixSeed(root_seed, 0x4b4c4c514e54'3030ULL);
}

uint64_t ShardSubpopSeed(uint64_t root_seed) {
  // Fixed salt ("SUBPOP00").
  return MixSeed(root_seed, 0x535542504f50'3030ULL);
}

// One worker lane. The router owns `routed` and only reads the worker-side
// fields (`seen`, `kept`, `partials`) after a quiesce: it spins until
// `processed` (release-incremented by the worker after each chunk) catches
// up with `routed`, and that acquire/release pair publishes everything the
// worker wrote while processing. Lane 0 also runs the engine-level KLL fold
// when the router routes it a fold marker; the same pair publishes the
// fold (ShardEngine::AwaitFold).
template <typename SketchT>
struct ShardEngine<SketchT>::Lane {
  Lane(size_t ring_chunks, size_t chunk_tuples)
      : recycle(ring_chunks), work(recycle.capacity() + 1) {
    // Data buffers match the recycle ring's capacity exactly, and the work
    // ring has one slot more, for a fold marker routed beside a full pool;
    // so a push to either ring always finds space: every buffer is in
    // exactly one ring or in one thread's hands. The stop sentinel gets its
    // own slot-free buffer (the router spins until it fits).
    pool.reserve(recycle.capacity() + 1);
    for (size_t i = 0; i < recycle.capacity(); ++i) {
      pool.push_back(std::make_unique<Chunk>());
      pool.back()->values.resize(chunk_tuples);
      Chunk* buffer = pool.back().get();
      recycle.TryPush(buffer);
    }
    pool.push_back(std::make_unique<Chunk>());
    pool.back()->stop = true;
    stop_chunk = pool.back().get();
  }

  // Worker thread body: pop, shed positionally, sketch, recycle. A fold
  // marker (only lane 0 is routed one) runs `fold` instead.
  template <typename Fold>
  void RunWorker(uint64_t root_seed, const Fold& fold) {
    Chunk* chunk = nullptr;
    while (true) {
      if (!work.TryPop(chunk)) {
        std::this_thread::yield();
        continue;
      }
      if (chunk->stop) break;
      if (chunk->fold) {
        fold();
        processed.fetch_add(1, MemOrder::kRelease);
        continue;  // the marker is not a buffer: never recycled
      }
      seen += chunk->count;
      const PositionalBernoulliSampler sampler(chunk->p, root_seed);
      const size_t survivors =
          sampler.KeepBatch(chunk->base, chunk->values.data(), chunk->count,
                            chunk->values.data());
      kept += survivors;
      if (collect_quantile) {
        // One run per chunk, empty runs included: FoldQuantile replays the
        // runs in the order the router dealt the chunks.
        qvalues.insert(qvalues.end(), chunk->values.data(),
                       chunk->values.data() + survivors);
        qruns.push_back(survivors);
      }
      if (survivors > 0) {
        for (Operator* feed : feeds) {
          feed->OnTuples(chunk->values.data(), survivors);
        }
      }
      processed.fetch_add(1, MemOrder::kRelease);
      recycle.TryPush(chunk);
    }
  }

  SpscQueue<Chunk*> recycle;  // worker -> router: free buffers
  SpscQueue<Chunk*> work;     // router -> worker: filled chunks, markers
  std::vector<std::unique_ptr<Chunk>> pool;
  Chunk* stop_chunk = nullptr;

  // One partial per slot, engaged iff the slot is (ShardEngine::slots_).
  PerSlot<std::optional> partials;
  // Where the survivors go, one entry per enabled slot: the partial's
  // SketchSinkOp, or the fault stage in front of it (`stages` owns both).
  std::vector<Operator*> feeds;
  std::vector<std::unique_ptr<Operator>> stages;
  FaultInjectingOperator* faults = nullptr;  // this lane's, if any
  // Quantile support: kept values awaiting the fold into the engine-level
  // KLL, and their survivor count per chunk, both in the order this lane
  // received the chunks. Worker-owned between quiesces. At a fold boundary
  // the router swaps them with the empty fold buffers, which lane 0's
  // FoldQuantile replays and clears before its marker counts as processed.
  bool collect_quantile = false;
  std::vector<uint64_t> qvalues;
  std::vector<size_t> qruns;
  std::vector<uint64_t> fold_values;
  std::vector<size_t> fold_runs;
  uint64_t seen = 0;  // worker-owned; router reads only after a quiesce
  uint64_t kept = 0;
  // Chunks fully processed; the release increment publishes seen/kept/
  // partials to a router that acquires it.
  alignas(64) StdAtomics::Atomic<uint64_t> processed{0};
  uint64_t routed = 0;  // router-owned
  // Router-owned stash for a buffer popped from `recycle` but not routed
  // (empty NextChunk). The router is the recycle ring's consumer; pushing
  // the buffer back would make it a second producer and race the worker.
  Chunk* spare = nullptr;

  std::thread thread;
};

template <typename SketchT>
ShardEngine<SketchT>::ShardEngine(SketchT prototype,
                                  const ShardEngineOptions& options)
    : options_(options),
      // The slot table: everything the engine does with a lane-partial
      // sketch follows from these rows. Companions see the shed survivors
      // before the fault stage (they describe the sampled stream, not what
      // a faulty sink saw); the primary sees them after it.
      slots_{Slot<SketchT>{.noun = "sketch",
                           .section = &PipelineCheckpoint::has_shards,
                           .blob = &ShardCheckpointState::sketch,
                           .deserialize = Deserializer(prototype),
                           .after_faults = true,
                           .proto = std::move(prototype)},
             Slot<KmvSketch>{
                 .noun = "distinct",
                 .section = &PipelineCheckpoint::has_shard_distinct,
                 .blob = &ShardCheckpointState::distinct,
                 .deserialize = &DeserializeKmv,
                 .after_faults = false,
                 .proto = Companion<KmvSketch>(
                     options.distinct_k, ShardDistinctSeed(options.seed))},
             Slot<KeyedKmvSketch>{
                 .noun = "subpop",
                 .section = &PipelineCheckpoint::has_shard_subpop,
                 .blob = &ShardCheckpointState::subpop,
                 .deserialize = &DeserializeKmvKeyed,
                 .after_faults = false,
                 .proto = Companion<KeyedKmvSketch>(
                     options.subpop_k, ShardSubpopSeed(options.seed))}},
      p_(options.shed_p),
      quantile_(Companion<KllSketch>(options.quantile_k,
                                     ShardQuantileSeed(options.seed))) {
  if (!(options_.shed_p >= 0.0 && options_.shed_p <= 1.0)) {
    throw std::invalid_argument("ShardEngine shed_p must be in [0, 1]");
  }
  if (options_.shards == 0) options_.shards = 1;
  if (options_.chunk_tuples == 0) options_.chunk_tuples = kPipelineChunk;
  if (options_.queue_chunks < 2) options_.queue_chunks = 2;
  if (options_.controller != nullptr) {
    p_ = options_.controller->p();
  }
  ForEachSlot(slots_, [](auto& slot, auto) { slot.base = slot.proto; });
}

template <typename SketchT>
void ShardEngine<SketchT>::SetSnapshotHook(ShardSnapshotHook<SketchT>* hook,
                                           uint64_t every_tuples) {
  snapshot_hook_ = hook;
  snapshot_every_ = every_tuples;
}

template <typename SketchT>
ShardEngine<SketchT>::~ShardEngine() = default;

template <typename SketchT>
void ShardEngine<SketchT>::Restore(const PipelineCheckpoint& cp,
                                   StreamSource& source) {
  if (!cp.has_shards) {
    throw CheckpointError("checkpoint has no shard section");
  }
  SKETCHSAMPLE_METRIC_INC("engine.shard.restores");
  // Load and check everything into fresh bases first; engine state changes
  // only after the whole checkpoint checks out (a bad blob must not
  // half-restore).
  PerSlot<std::optional> bases;
  ForEachSlot(slots_, [&](const auto& slot, auto i) {
    if (!slot.proto.has_value()) return;
    if (!(cp.*slot.section)) throw MissingSection(slot.noun);
    auto& base = std::get<i>(bases);
    base = slot.proto;
    for (const ShardCheckpointState& shard : cp.shards) {
      const std::vector<uint8_t>& blob = shard.*slot.blob;
      if (blob.empty()) continue;
      base->Merge(LoadBlob(blob, slot.deserialize, *slot.proto, slot.noun));
    }
  });
  std::optional<KllSketch> quantile;
  if (quantile_.has_value()) {
    if (!cp.has_quantile_subpop || cp.quantile.empty()) {
      throw MissingSection("quantile");
    }
    quantile = LoadBlob(cp.quantile, &DeserializeKll, *quantile_, "quantile");
  }
  uint64_t seen = 0;
  uint64_t kept = 0;
  for (const ShardCheckpointState& shard : cp.shards) {
    seen += shard.seen;
    kept += shard.kept;
  }
  if (seen != cp.source_tuples) {
    throw CheckpointError(
        "checkpoint shard counts do not cover the source position");
  }
  if (DiscardTuples(source, cp.source_tuples) != cp.source_tuples) {
    throw CheckpointError(
        "source ended before the checkpointed position; it is not the "
        "stream this checkpoint was taken against");
  }
  ForEachSlot(slots_, [&](auto& slot, auto i) {
    slot.base = std::move(std::get<i>(bases));
  });
  quantile_ = std::move(quantile);
  total_seen_ = seen;
  total_kept_ = kept;
  p_ = cp.shard_p;
  if (cp.has_controller && options_.controller != nullptr) {
    options_.controller->RestoreState(cp.controller);
    p_ = options_.controller->p();
  }
}

template <typename SketchT>
void ShardEngine<SketchT>::WriteCheckpoint(
    const std::vector<std::unique_ptr<Lane>>& lanes, uint64_t total,
    ShardEngineStats& stats) const {
  PipelineCheckpoint cp;
  cp.source_tuples = total;
  cp.has_shards = true;
  cp.shard_p = p_;
  cp.shards.resize(lanes.size());
  for (size_t s = 0; s < lanes.size(); ++s) {
    cp.shards[s].seen = lanes[s]->seen;
    cp.shards[s].kept = lanes[s]->kept;
  }
  // The restored base (prior runs / prior shard layouts, not yet merged
  // with any lane) rides in shard 0's entry so a second kill-and-resume
  // still covers the whole prefix.
  cp.shards[0].seen += total_seen_;
  cp.shards[0].kept += total_kept_;
  ForEachSlot(slots_, [&](const auto& slot, auto i) {
    if (!slot.base.has_value()) return;
    cp.*slot.section = true;
    for (size_t s = 0; s < lanes.size(); ++s) {
      const auto& partial = *std::get<i>(lanes[s]->partials);
      if (s == 0) {
        auto with_base = *slot.base;
        with_base.Merge(partial);
        cp.shards[s].*slot.blob = SerializeSketch(with_base);
      } else {
        cp.shards[s].*slot.blob = SerializeSketch(partial);
      }
    }
  });
  // Flag bit 4 carries both the KLL blob and the per-shard subpop blobs.
  cp.has_quantile_subpop = quantile_.has_value() || cp.has_shard_subpop;
  if (quantile_.has_value()) {
    // The Run loop hands every lane's pending runs to lane 0 before
    // checkpointing; once that fold is done the KLL covers the whole kept
    // prefix.
    AwaitFold(lanes);
    cp.quantile = SerializeSketch(*quantile_);
  }
  if (options_.controller != nullptr) {
    cp.has_controller = true;
    cp.controller = options_.controller->SaveState();
  }
  options_.checkpoint_sink->Write(SerializeCheckpoint(cp), total);
  ++stats.checkpoints;
  SKETCHSAMPLE_METRIC_INC("engine.shard.checkpoints");
}

template <typename SketchT>
ShardEngineSnapshot<SketchT> ShardEngine<SketchT>::Cut(
    const std::vector<std::unique_ptr<Lane>>& lanes,
    uint64_t position) const {
  // Called with every lane quiesced (or joined), so lane partials and
  // counts are safe to read. The snapshot is fully materialized by value —
  // copying the bases here is what lets readers drop every lock.
  PerSlot<std::optional> merged = std::apply(
      [](const auto&... slot) { return std::tuple{slot.base...}; }, slots_);
  ForEachSlot(merged, [&](auto& sketch, auto i) {
    if (!sketch.has_value()) return;
    for (const auto& lane : lanes) sketch->Merge(*std::get<i>(lane->partials));
  });
  uint64_t kept = total_kept_;
  for (const auto& lane : lanes) kept += lane->kept;
  auto& [sketch, distinct, subpop] = merged;
  // The Run loop hands every lane's pending runs to lane 0 before every
  // cut; once that fold is done the copy covers the kept prefix up to
  // `position` in position order.
  AwaitFold(lanes);
  return {std::move(*sketch), std::move(distinct), quantile_, std::move(subpop),
          position, kept, snapshot_sequence_, p_};
}

template <typename SketchT>
ShardEngineSnapshot<SketchT> ShardEngine<SketchT>::Snapshot() const {
  return Cut({}, total_seen_);
}

template <typename SketchT>
void ShardEngine<SketchT>::PublishSnapshot(
    const std::vector<std::unique_ptr<Lane>>& lanes, uint64_t total,
    ShardEngineStats& stats) {
  ++snapshot_sequence_;
  ++stats.snapshots;
  SKETCHSAMPLE_METRIC_INC("engine.shard.snapshots");
  snapshot_hook_->Publish(Cut(lanes, total));
}

template <typename SketchT>
void ShardEngine<SketchT>::FoldQuantile(
    const std::vector<std::unique_ptr<Lane>>& lanes, size_t first_lane) {
  // The router deals chunks round-robin in ascending stream position, and
  // `first_lane` got the first chunk since the last fold. Taking one run
  // from each lane in turn, until the lane whose turn it is has none left,
  // therefore replays the kept stream in position order. The KLL state is a
  // pure function of its update sequence, so it stays a function of the
  // kept stream no matter how the stream was partitioned — the whole
  // bit-exactness argument for quantiles (the fold boundary itself is
  // irrelevant to the result).
  std::vector<size_t> next_run(lanes.size(), 0);
  std::vector<size_t> offset(lanes.size(), 0);
  for (size_t s = first_lane; next_run[s] < lanes[s]->fold_runs.size();
       s = s + 1 == lanes.size() ? 0 : s + 1) {
    const Lane& lane = *lanes[s];
    const size_t run = lane.fold_runs[next_run[s]++];
    for (size_t i = offset[s]; i < offset[s] + run; ++i) {
      quantile_->Update(lane.fold_values[i]);
    }
    offset[s] += run;
  }
  for (const auto& lane : lanes) {
    lane->fold_values.clear();
    lane->fold_runs.clear();
  }
}

template <typename SketchT>
void ShardEngine<SketchT>::AwaitFold(
    const std::vector<std::unique_ptr<Lane>>& lanes) const {
  if (lanes.empty()) return;
  const Lane& lane = *lanes[0];
  while (lane.processed.load(MemOrder::kAcquire) != lane.routed) {
    std::this_thread::yield();
  }
}

template <typename SketchT>
ShardEngineStats ShardEngine<SketchT>::Run(StreamSource& source) {
  ShardEngineStats stats;
  SKETCHSAMPLE_METRIC_SCOPED_TIMER("engine.shard.run");
  Timer timer;

  const size_t shards = options_.shards;
  const size_t chunk_size = options_.chunk_tuples;
  const bool adaptive = options_.controller != nullptr;
  const uint64_t window =
      adaptive ? options_.controller->options().window_tuples : 0;
  const bool checkpointing =
      options_.checkpoint_sink != nullptr && options_.checkpoint_every > 0;
  const bool faulty =
      options_.fault_profile != nullptr && options_.fault_profile->Active();

  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    lanes.push_back(std::make_unique<Lane>(options_.queue_chunks, chunk_size));
    Lane& lane = *lanes.back();
    lane.collect_quantile = quantile_.has_value();
    ForEachSlot(slots_, [&](const auto& slot, auto i) {
      auto& partial = std::get<i>(lane.partials);
      partial = slot.proto;
      if (!partial.has_value()) return;
      using T = std::remove_cvref_t<decltype(*partial)>;
      lane.stages.push_back(std::make_unique<SketchSinkOp<T>>(&*partial));
      if (faulty && slot.after_faults) {
        auto faults = std::make_unique<FaultInjectingOperator>(
            lane.stages.back().get(), *options_.fault_profile,
            MixSeed(options_.fault_seed, static_cast<uint64_t>(s)),
            "shard" + std::to_string(s));
        lane.faults = faults.get();
        lane.stages.push_back(std::move(faults));
      }
      lane.feeds.push_back(lane.stages.back().get());
    });
  }
  // The engine-level KLL fold, run by lane 0 on a fold marker. The router
  // writes `fold_first` before it routes the marker, and reads the lanes'
  // fold buffers again only after a quiesce: the ring and `processed`
  // order both hand-offs.
  Chunk fold_marker;
  fold_marker.fold = true;
  size_t fold_first = 0;
  const auto fold = [this, &lanes, &fold_first] {
    FoldQuantile(lanes, fold_first);
  };
  for (auto& lane : lanes) {
    Lane* raw = lane.get();
    const uint64_t seed = options_.seed;
    raw->thread =
        std::thread([raw, seed, &fold] { raw->RunWorker(seed, fold); });
  }

  // Routes a chunk or the fold marker to `lane`. The work ring holds the
  // lane's whole pool plus one marker, so a full ring means the buffer
  // accounting is broken: fail rather than drop the item.
  auto route = [](Lane& lane, Chunk* item) {
    if (!lane.work.TryPush(item)) {
      throw std::logic_error("ShardEngine lane work ring is full");
    }
    ++lane.routed;
  };
  // Spins until every routed chunk and fold marker is processed; afterwards
  // the worker-side lane fields are safe to read (and each work ring is
  // empty).
  auto quiesce = [&lanes, &stats] {
    for (auto& lane : lanes) {
      while (lane->processed.load(MemOrder::kAcquire) !=
             lane->routed) {
        std::this_thread::yield();
      }
    }
    ++stats.quiesces;
  };
  // Pushes the stop sentinel (space is guaranteed once the work ring
  // drains) and joins every worker. Join is a full barrier, so lane fields
  // are readable without a quiesce afterwards.
  auto stop_workers = [&lanes] {
    for (auto& lane : lanes) {
      while (!lane->work.TryPush(lane->stop_chunk)) {
        std::this_thread::yield();
      }
    }
    for (auto& lane : lanes) {
      if (lane->thread.joinable()) lane->thread.join();
    }
  };
  // Total kept across the restored base and every lane; quiesced only.
  auto kept_total = [this, &lanes] {
    uint64_t kept = total_kept_;
    for (const auto& lane : lanes) kept += lane->kept;
    return kept;
  };

  // Absolute stream position; window/checkpoint boundaries are phase-locked
  // to it, so a resumed engine makes the same control decisions at the same
  // offsets as an uninterrupted one.
  uint64_t total = total_seen_;
  uint64_t next_window = adaptive ? (total / window + 1) * window : UINT64_MAX;
  uint64_t next_checkpoint =
      checkpointing ? (total / options_.checkpoint_every + 1) *
                          options_.checkpoint_every
                    : UINT64_MAX;
  const bool snapshotting = snapshot_hook_ != nullptr && snapshot_every_ > 0;
  uint64_t next_snapshot =
      snapshotting ? (total / snapshot_every_ + 1) * snapshot_every_
                   : UINT64_MAX;
  // Quantile folds get their own phase-locked boundary to bound per-lane
  // buffer memory; checkpoint/snapshot boundaries fold opportunistically
  // on top (the fold point never changes the sketch state).
  const bool qfolding = quantile_.has_value();
  uint64_t next_qfold =
      qfolding
          ? (total / kShardQuantileFoldEvery + 1) * kShardQuantileFoldEvery
          : UINT64_MAX;
  // Window deltas measure against the totals at the last tick: controller
  // totals on a resume (checkpoints need not align with windows, and the
  // restored counts sit at the checkpoint, not at the last tick), realized
  // totals otherwise.
  uint64_t window_seen_base = 0;
  uint64_t window_kept_base = 0;
  if (adaptive) {
    if (total > 0) {
      window_seen_base = options_.controller->total_offered();
      window_kept_base = options_.controller->total_kept();
    } else {
      window_seen_base = total_seen_;
      window_kept_base = total_kept_;
    }
  }
  Timer window_timer;
  uint64_t window_chunks = 0;
  uint64_t window_ring_stalls = 0;
  uint64_t stall_budget = options_.stall_retries;
  size_t rr = 0;
  // Lane dealt the first chunk since the last quantile fold.
  size_t fold_lane = 0;
  // Lanes quiesced (or joined): swaps every lane's pending runs into its
  // fold buffers, which the last fold left empty, and counts the fold.
  auto take_runs = [&] {
    size_t values = 0;
    for (auto& lane : lanes) {
      lane->qvalues.swap(lane->fold_values);
      lane->qruns.swap(lane->fold_runs);
      values += lane->fold_values.size();
    }
    fold_first = fold_lane;
    fold_lane = rr;
    if (values == 0) return;
    ++stats.quantile_folds;
    SKETCHSAMPLE_METRIC_INC("engine.shard.quantile_folds");
  };
  // Lanes quiesced: hands the pending runs to lane 0, which folds them
  // while the router cuts or routes on. One fold is in flight at most: the
  // next hand-off follows a quiesce, which waits for this marker too.
  auto hand_off_fold = [&] {
    if (!qfolding) return;
    take_runs();
    route(*lanes[0], &fold_marker);
  };

  try {
    while (true) {
      if (options_.max_tuples > 0 && stats.tuples >= options_.max_tuples) {
        break;
      }
      uint64_t want = std::min<uint64_t>(chunk_size, next_window - total);
      want = std::min(want, next_checkpoint - total);
      want = std::min(want, next_snapshot - total);
      want = std::min(want, next_qfold - total);
      if (options_.max_tuples > 0) {
        want = std::min(want, options_.max_tuples - stats.tuples);
      }

      // A lane with no free buffer is the backpressure signal: the worker
      // has not recycled fast enough. Spin (counted) until one frees up.
      Lane& lane = *lanes[rr];
      Chunk* buffer = lane.spare;
      lane.spare = nullptr;
      while (buffer == nullptr && !lane.recycle.TryPop(buffer)) {
        ++stats.ring_full_retries;
        ++window_ring_stalls;
        std::this_thread::yield();
      }

      const size_t n =
          source.NextChunk(buffer->values.data(), static_cast<size_t>(want));
      if (n == 0) {
        lane.spare = buffer;  // stash router-side; see Lane::spare
        if (source.Stalled()) {
          if (stall_budget == 0) {
            stats.stalled = true;
            SKETCHSAMPLE_METRIC_INC("engine.shard.stall_deaths");
            break;
          }
          --stall_budget;
          ++stats.stall_retries;
          continue;
        }
        stats.ended = true;
        break;
      }
      stall_budget = options_.stall_retries;  // stall episode survived

      buffer->count = n;
      buffer->base = total;
      buffer->p = p_;
      route(lane, buffer);
      // Depth sampled once per routed chunk; divide by engine.shard.chunks
      // for the mean backlog a worker ran behind the router.
      SKETCHSAMPLE_METRIC_ADD("engine.shard.queue.depth_sum",
                              lane.work.SizeApprox());
      stats.tuples += n;
      total += n;
      ++stats.chunks;
      ++window_chunks;
      rr = rr + 1 == shards ? 0 : rr + 1;

      if (adaptive && total >= next_window) {
        quiesce();
        const uint64_t cur_kept = kept_total();
        const uint64_t offered = total - window_seen_base;
        const uint64_t kept = cur_kept - window_kept_base;
        window_seen_base = total;
        window_kept_base = cur_kept;
        const ShedControllerOptions& copts = options_.controller->options();
        double capacity = copts.capacity_per_window;
        if (capacity <= 0.0 && copts.target_tps > 0.0) {
          capacity = copts.target_tps * window_timer.ElapsedSeconds();
          if (window_ring_stalls > 0) {
            // Wall-clock mode only: a window that spent a fraction of its
            // routing attempts waiting on a full ring gets its capacity
            // discounted by that fraction — a full ring is the sink saying
            // "too fast" just as surely as a slow window. A fixed budget is
            // never discounted, so budget runs stay reproducible.
            const double attempts =
                static_cast<double>(window_chunks + window_ring_stalls);
            capacity *= static_cast<double>(window_chunks) / attempts;
          }
        }
        p_ = options_.controller->OnWindow(offered, kept, capacity);
        ++stats.windows;
        window_chunks = 0;
        window_ring_stalls = 0;
        next_window += window;
        window_timer.Start();
      }
      if (checkpointing && total >= next_checkpoint) {
        quiesce();
        hand_off_fold();  // checkpoint covers the whole prefix
        WriteCheckpoint(lanes, total, stats);
        next_checkpoint += options_.checkpoint_every;
      }
      if (snapshotting && total >= next_snapshot) {
        quiesce();
        hand_off_fold();  // snapshot covers the whole prefix
        PublishSnapshot(lanes, total, stats);
        next_snapshot += snapshot_every_;
      }
      // Last, so that where the fold cadence meets a checkpoint or snapshot
      // boundary, the fold with the runs in it overlaps that cut.
      if (qfolding && total >= next_qfold) {
        quiesce();
        hand_off_fold();
        next_qfold += kShardQuantileFoldEvery;
      }
    }
  } catch (...) {
    stop_workers();  // never leak a running thread past the engine
    throw;
  }

  stop_workers();

  // Workers are joined (a full barrier), so the leftover quantile runs go
  // through the same fold on this thread, without a quiesce.
  if (qfolding) {
    take_runs();
    FoldQuantile(lanes, fold_first);
  }

  // Merge stage: fold every partial into the restored base, in shard order
  // (order does not matter for the result — counter merges are exact sums
  // and KMV union is a set union — but a fixed order keeps runs replayable
  // down to metric values).
  uint64_t run_kept = 0;
  stats.shard_tuples.reserve(shards);
  stats.shard_kept.reserve(shards);
  stats.shard_faults.reserve(shards);
  for (auto& lane : lanes) {
    stats.shard_tuples.push_back(lane->seen);
    stats.shard_kept.push_back(lane->kept);
    stats.shard_faults.push_back(
        lane->faults != nullptr ? lane->faults->faults_injected() : 0);
    run_kept += lane->kept;
    ++stats.merges;
  }
  ForEachSlot(slots_, [&](auto& slot, auto i) {
    if (!slot.base.has_value()) return;
    for (auto& lane : lanes) slot.base->Merge(*std::get<i>(lane->partials));
  });
  stats.kept = run_kept;
  total_seen_ += stats.tuples;
  total_kept_ += run_kept;
  stats.final_p = p_;
  stats.seconds = timer.ElapsedSeconds();

  if (snapshot_hook_ != nullptr) {
    // Final snapshot: everything is folded into the bases now, so publish
    // the engine state with no lanes to fold (also covers
    // SetSnapshotHook(hook, 0) — publish-at-end-only).
    PublishSnapshot({}, total, stats);
  }

  SKETCHSAMPLE_METRIC_ADD("engine.shard.tuples", stats.tuples);
  SKETCHSAMPLE_METRIC_ADD("engine.shard.kept", stats.kept);
  SKETCHSAMPLE_METRIC_ADD("engine.shard.chunks", stats.chunks);
  SKETCHSAMPLE_METRIC_ADD("engine.shard.merges", stats.merges);
  SKETCHSAMPLE_METRIC_ADD("engine.shard.windows", stats.windows);
  SKETCHSAMPLE_METRIC_ADD("engine.shard.queue.full_retries",
                          stats.ring_full_retries);
  SKETCHSAMPLE_METRIC_ADD("engine.shard.quiesces", stats.quiesces);
  return stats;
}

template class ShardEngine<AgmsSketch>;
template class ShardEngine<FagmsSketch>;
template class ShardEngine<CountMinSketch>;
template class ShardEngine<FastCountSketch>;
template class ShardEngine<KmvSketch>;

}  // namespace sketchsample
