#include "src/stream/shard_engine.h"

#include <algorithm>
#include "src/util/atomics_policy.h"
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
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
};

// Applies a survivor batch to a sketch through its widest interface.
template <typename SketchT>
void UpdateInto(SketchT& sketch, const uint64_t* values, size_t n) {
  if constexpr (requires { sketch.UpdateBatch(values, n); }) {
    sketch.UpdateBatch(values, n);
  } else {
    for (size_t i = 0; i < n; ++i) sketch.Update(values[i]);
  }
}

// Operator facade over a worker's partial sketch, so the fault-injection
// wrapper (an Operator) can sit between the shed stage and the sketch.
template <typename SketchT>
class SketchSinkOp final : public Operator {
 public:
  explicit SketchSinkOp(SketchT* sketch) : sketch_(sketch) {}
  void OnTuples(const uint64_t* values, size_t n) override {
    UpdateInto(*sketch_, values, n);
  }

 private:
  SketchT* sketch_;
};

// Deserializes a shard partial as the engine's concrete sketch type
// (overload set in place of a traits class).
AgmsSketch DeserializePartial(const AgmsSketch&,
                              const std::vector<uint8_t>& blob) {
  return DeserializeAgms(blob);
}
FagmsSketch DeserializePartial(const FagmsSketch&,
                               const std::vector<uint8_t>& blob) {
  return DeserializeFagms(blob);
}
CountMinSketch DeserializePartial(const CountMinSketch&,
                                  const std::vector<uint8_t>& blob) {
  return DeserializeCountMin(blob);
}
FastCountSketch DeserializePartial(const FastCountSketch&,
                                   const std::vector<uint8_t>& blob) {
  return DeserializeFastCount(blob);
}
KmvSketch DeserializePartial(const KmvSketch&,
                             const std::vector<uint8_t>& blob) {
  return DeserializeKmv(blob);
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
// fields (`seen`, `kept`, `partial`) after a quiesce: it spins until
// `processed` (release-incremented by the worker after each chunk) catches
// up with `routed`, and that acquire/release pair publishes everything the
// worker wrote while processing.
template <typename SketchT>
struct ShardEngine<SketchT>::Lane {
  Lane(size_t ring_chunks, size_t chunk_tuples, const SketchT& proto)
      : work(ring_chunks), recycle(ring_chunks), partial(proto) {
    // Data buffers match the ring capacity exactly, so a push to either
    // ring always finds space: every buffer is in exactly one ring or in
    // one thread's hands. The stop sentinel gets its own slot-free buffer
    // (it is pushed only after a quiesce empties the work ring).
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

  // Worker thread body: pop, shed positionally, sketch, recycle.
  void RunWorker(uint64_t root_seed) {
    Chunk* chunk = nullptr;
    while (true) {
      if (!work.TryPop(chunk)) {
        std::this_thread::yield();
        continue;
      }
      if (chunk->stop) break;
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
      if (kmv.has_value()) {
        // Distinct counting observes the sampled stream itself, before any
        // fault-injection stage corrupts it — the count answers "how many
        // distinct values survived the shed", not "what did the faulty sink
        // see".
        for (size_t i = 0; i < survivors; ++i) kmv->Update(chunk->values[i]);
      }
      if (subpop.has_value()) {
        // Same pre-fault placement as the distinct counter: subpopulation
        // weights describe the sampled stream.
        for (size_t i = 0; i < survivors; ++i) {
          subpop->Update(chunk->values[i]);
        }
      }
      if (survivors > 0) {
        if (head != nullptr) {
          head->OnTuples(chunk->values.data(), survivors);
        } else {
          UpdateInto(partial, chunk->values.data(), survivors);
        }
      }
      processed.fetch_add(1, MemOrder::kRelease);
      recycle.TryPush(chunk);
    }
  }

  SpscQueue<Chunk*> work;     // router -> worker: filled chunks
  SpscQueue<Chunk*> recycle;  // worker -> router: free buffers
  std::vector<std::unique_ptr<Chunk>> pool;
  Chunk* stop_chunk = nullptr;

  SketchT partial;
  // Auxiliary distinct partial (engaged iff options.distinct_k > 0); same
  // ownership discipline as `partial`.
  std::optional<KmvSketch> kmv;
  // Keyed-KMV subpopulation partial (engaged iff options.subpop_k > 0).
  std::optional<KeyedKmvSketch> subpop;
  // Quantile support: kept values awaiting the router's fold into the
  // engine-level KLL, and their survivor count per chunk, both in the order
  // this lane received the chunks. Worker-owned between quiesces; the
  // router drains them in FoldQuantile.
  bool collect_quantile = false;
  std::vector<uint64_t> qvalues;
  std::vector<size_t> qruns;
  uint64_t seen = 0;  // worker-owned; router reads only after a quiesce
  uint64_t kept = 0;
  // Chunks fully processed; the release increment publishes seen/kept/
  // partial to a router that acquires it.
  alignas(64) StdAtomics::Atomic<uint64_t> processed{0};
  uint64_t routed = 0;  // router-owned
  // Router-owned stash for a buffer popped from `recycle` but not routed
  // (empty NextChunk). The router is the recycle ring's consumer; pushing
  // the buffer back would make it a second producer and race the worker.
  Chunk* spare = nullptr;

  // Optional push-path fault stage: head -> faults -> sink -> partial.
  std::unique_ptr<Operator> sink;
  std::unique_ptr<FaultInjectingOperator> faults;
  Operator* head = nullptr;

  std::thread thread;
};

template <typename SketchT>
ShardEngine<SketchT>::ShardEngine(const SketchT& prototype,
                                  const ShardEngineOptions& options)
    : options_(options),
      proto_(prototype),
      merged_(prototype),
      p_(options.shed_p) {
  if (!(options_.shed_p >= 0.0 && options_.shed_p <= 1.0)) {
    throw std::invalid_argument("ShardEngine shed_p must be in [0, 1]");
  }
  if (options_.shards == 0) options_.shards = 1;
  if (options_.chunk_tuples == 0) options_.chunk_tuples = kPipelineChunk;
  if (options_.queue_chunks < 2) options_.queue_chunks = 2;
  if (options_.controller != nullptr) {
    p_ = options_.controller->p();
  }
  if (options_.distinct_k > 0) {
    // KmvSketch validates k >= 2 itself; the derived seed makes the counter
    // a pure function of (root seed, kept prefix) like everything else.
    distinct_.emplace(options_.distinct_k, ShardDistinctSeed(options_.seed));
  }
  if (options_.quantile_k > 0) {
    if (options_.quantile_fold_every == 0) {
      options_.quantile_fold_every = 65536;
    }
    quantile_.emplace(options_.quantile_k, ShardQuantileSeed(options_.seed));
  }
  if (options_.subpop_k > 0) {
    subpop_.emplace(options_.subpop_k, ShardSubpopSeed(options_.seed));
  }
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
  // Validate everything into locals first; engine state mutates only after
  // the whole checkpoint checks out (a bad blob must not half-restore).
  SketchT base = proto_;
  std::optional<KmvSketch> distinct_base;
  if (distinct_.has_value()) {
    if (!cp.has_shard_distinct) {
      throw CheckpointError(
          "checkpoint has no distinct section but the engine has distinct "
          "counting enabled; resume would silently drop the counter");
    }
    distinct_base.emplace(options_.distinct_k,
                          ShardDistinctSeed(options_.seed));
  }
  std::optional<KllSketch> quantile_base;
  if (quantile_.has_value()) {
    if (!cp.has_quantile_subpop || cp.quantile.empty()) {
      throw CheckpointError(
          "checkpoint has no quantile sketch but the engine has quantile "
          "queries enabled; resume would silently drop rank state");
    }
    quantile_base = [&] {
      try {
        return DeserializeKll(cp.quantile);
      } catch (const std::invalid_argument& error) {
        throw CheckpointError(
            std::string("checkpoint quantile sketch invalid: ") +
            error.what());
      }
    }();
    if (!quantile_->CompatibleWith(*quantile_base)) {
      throw CheckpointError(
          "checkpoint quantile sketch incompatible with engine "
          "configuration (quantile_k/seed mismatch)");
    }
  }
  std::optional<KeyedKmvSketch> subpop_base;
  if (subpop_.has_value()) {
    if (!cp.has_shard_subpop) {
      throw CheckpointError(
          "checkpoint has no subpop section but the engine has "
          "subpopulation queries enabled; resume would silently drop the "
          "sketch");
    }
    subpop_base.emplace(options_.subpop_k, ShardSubpopSeed(options_.seed));
  }
  uint64_t seen = 0;
  uint64_t kept = 0;
  for (const ShardCheckpointState& shard : cp.shards) {
    seen += shard.seen;
    kept += shard.kept;
    if (distinct_base.has_value() && !shard.distinct.empty()) {
      KmvSketch partial = [&] {
        try {
          return DeserializeKmv(shard.distinct);
        } catch (const std::invalid_argument& error) {
          throw CheckpointError(
              std::string("checkpoint shard distinct blob invalid: ") +
              error.what());
        }
      }();
      if (!distinct_base->CompatibleWith(partial)) {
        throw CheckpointError(
            "checkpoint shard distinct counter incompatible with engine "
            "configuration (distinct_k/seed mismatch)");
      }
      distinct_base->Merge(partial);
    }
    if (subpop_base.has_value() && !shard.subpop.empty()) {
      KeyedKmvSketch partial = [&] {
        try {
          return DeserializeKmvKeyed(shard.subpop);
        } catch (const std::invalid_argument& error) {
          throw CheckpointError(
              std::string("checkpoint shard subpop blob invalid: ") +
              error.what());
        }
      }();
      if (!subpop_base->CompatibleWith(partial)) {
        throw CheckpointError(
            "checkpoint shard subpop sketch incompatible with engine "
            "configuration (subpop_k/seed mismatch)");
      }
      subpop_base->Merge(partial);
    }
    if (shard.sketch.empty()) continue;
    SketchT partial = [&] {
      try {
        return DeserializePartial(proto_, shard.sketch);
      } catch (const std::invalid_argument& error) {
        throw CheckpointError(std::string("checkpoint shard sketch invalid: ") +
                              error.what());
      }
    }();
    if (!base.CompatibleWith(partial)) {
      throw CheckpointError(
          "checkpoint shard sketch incompatible with engine prototype");
    }
    base.Merge(partial);
  }
  if (seen != cp.source_tuples) {
    throw CheckpointError(
        "checkpoint shard counts do not cover the source position");
  }
  merged_ = std::move(base);
  if (distinct_base.has_value()) distinct_ = std::move(distinct_base);
  if (quantile_base.has_value()) quantile_ = std::move(quantile_base);
  if (subpop_base.has_value()) subpop_ = std::move(subpop_base);
  total_seen_ = seen;
  total_kept_ = kept;
  p_ = cp.shard_p;
  if (cp.has_controller && options_.controller != nullptr) {
    options_.controller->RestoreState(cp.controller);
    p_ = options_.controller->p();
  }
  initial_tuples_ = cp.source_tuples;
  const uint64_t discarded = DiscardTuples(source, cp.source_tuples);
  if (discarded != cp.source_tuples) {
    throw CheckpointError(
        "source ended before the checkpointed position; it is not the "
        "stream this checkpoint was taken against");
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
  cp.has_shard_distinct = distinct_.has_value();
  cp.has_quantile_subpop = quantile_.has_value() || subpop_.has_value();
  if (quantile_.has_value()) {
    // The engine-level KLL already covers the whole kept prefix — the Run
    // loop folds every lane's pending runs before checkpointing.
    cp.quantile = SerializeSketch(*quantile_);
  }
  cp.has_shard_subpop = subpop_.has_value();
  cp.shards.reserve(lanes.size());
  for (size_t s = 0; s < lanes.size(); ++s) {
    const Lane& lane = *lanes[s];
    ShardCheckpointState shard;
    shard.seen = lane.seen;
    shard.kept = lane.kept;
    if (s == 0) {
      // The restored base (prior runs / prior shard layouts, already merged
      // into merged_) rides in shard 0's entry so a second kill-and-resume
      // still covers the whole prefix.
      shard.seen += total_seen_;
      shard.kept += total_kept_;
      SketchT with_base = merged_;
      with_base.Merge(lane.partial);
      shard.sketch = SerializeSketch(with_base);
      if (distinct_.has_value()) {
        KmvSketch kmv_base = *distinct_;
        if (lane.kmv.has_value()) kmv_base.Merge(*lane.kmv);
        shard.distinct = SerializeSketch(kmv_base);
      }
      if (subpop_.has_value()) {
        KeyedKmvSketch subpop_base = *subpop_;
        if (lane.subpop.has_value()) subpop_base.Merge(*lane.subpop);
        shard.subpop = SerializeSketch(subpop_base);
      }
    } else {
      shard.sketch = SerializeSketch(lane.partial);
      if (lane.kmv.has_value()) {
        shard.distinct = SerializeSketch(*lane.kmv);
      }
      if (lane.subpop.has_value()) {
        shard.subpop = SerializeSketch(*lane.subpop);
      }
    }
    cp.shards.push_back(std::move(shard));
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
void ShardEngine<SketchT>::PublishSnapshot(
    const std::vector<std::unique_ptr<Lane>>& lanes, uint64_t total,
    ShardEngineStats& stats) {
  // Called with every lane quiesced (or joined), so lane partials and
  // counts are safe to read. The snapshot is fully materialized by value —
  // copying the merged sketch here is what lets readers drop every lock.
  ShardEngineSnapshot<SketchT> snap{merged_, {}, {}, {}, 0, 0, 1.0, 0};
  uint64_t kept = total_kept_;
  for (const auto& lane : lanes) {
    snap.sketch.Merge(lane->partial);
    kept += lane->kept;
  }
  if (distinct_.has_value()) {
    snap.distinct = *distinct_;
    for (const auto& lane : lanes) {
      if (lane->kmv.has_value()) snap.distinct->Merge(*lane->kmv);
    }
  }
  if (quantile_.has_value()) {
    // Folded through FoldQuantile before every publication, so the copy
    // already covers the kept prefix up to `total` in position order.
    snap.quantile = *quantile_;
  }
  if (subpop_.has_value()) {
    snap.subpop = *subpop_;
    for (const auto& lane : lanes) {
      if (lane->subpop.has_value()) snap.subpop->Merge(*lane->subpop);
    }
  }
  snap.position = total;
  snap.kept = kept;
  snap.p = p_;
  snap.sequence = ++snapshot_sequence_;
  ++stats.snapshots;
  SKETCHSAMPLE_METRIC_INC("engine.shard.snapshots");
  snapshot_hook_->Publish(std::move(snap));
}

template <typename SketchT>
void ShardEngine<SketchT>::FoldQuantile(
    const std::vector<std::unique_ptr<Lane>>& lanes, size_t first_lane,
    ShardEngineStats& stats) {
  if (!quantile_.has_value()) return;
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
  for (size_t s = first_lane; next_run[s] < lanes[s]->qruns.size();
       s = s + 1 == lanes.size() ? 0 : s + 1) {
    const Lane& lane = *lanes[s];
    const size_t run = lane.qruns[next_run[s]++];
    for (size_t i = offset[s]; i < offset[s] + run; ++i) {
      quantile_->Update(lane.qvalues[i]);
    }
    offset[s] += run;
  }
  size_t folded = 0;
  for (const auto& lane : lanes) {
    folded += lane->qvalues.size();
    lane->qvalues.clear();
    lane->qruns.clear();
  }
  if (folded == 0) return;
  ++stats.quantile_folds;
  SKETCHSAMPLE_METRIC_INC("engine.shard.quantile_folds");
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
    lanes.push_back(
        std::make_unique<Lane>(options_.queue_chunks, chunk_size, proto_));
    Lane& lane = *lanes.back();
    if (distinct_.has_value()) {
      lane.kmv.emplace(options_.distinct_k, ShardDistinctSeed(options_.seed));
    }
    if (subpop_.has_value()) {
      lane.subpop.emplace(options_.subpop_k, ShardSubpopSeed(options_.seed));
    }
    lane.collect_quantile = quantile_.has_value();
    if (faulty) {
      lane.sink = std::make_unique<SketchSinkOp<SketchT>>(&lane.partial);
      lane.faults = std::make_unique<FaultInjectingOperator>(
          lane.sink.get(), *options_.fault_profile,
          MixSeed(options_.fault_seed, static_cast<uint64_t>(s)),
          "shard" + std::to_string(s));
      lane.head = lane.faults.get();
    }
  }
  for (auto& lane : lanes) {
    Lane* raw = lane.get();
    const uint64_t seed = options_.seed;
    raw->thread = std::thread([raw, seed] { raw->RunWorker(seed); });
  }

  // Spins until every routed chunk is processed; afterwards the worker-side
  // lane fields are safe to read (and each work ring is empty).
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
  uint64_t total = initial_tuples_;
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
      qfolding ? (total / options_.quantile_fold_every + 1) *
                     options_.quantile_fold_every
               : UINT64_MAX;
  // Window deltas measure against the totals at the last tick: controller
  // totals on a resume (checkpoints need not align with windows, and the
  // restored counts sit at the checkpoint, not at the last tick), realized
  // totals otherwise.
  uint64_t window_seen_base = 0;
  uint64_t window_kept_base = 0;
  if (adaptive) {
    if (initial_tuples_ > 0) {
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
  auto fold_quantile = [&] {
    FoldQuantile(lanes, fold_lane, stats);
    fold_lane = rr;
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
      lane.work.TryPush(buffer);  // always fits: pool size == ring capacity
      ++lane.routed;
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
      if (qfolding && total >= next_qfold) {
        quiesce();
        fold_quantile();
        next_qfold += options_.quantile_fold_every;
      }
      if (checkpointing && total >= next_checkpoint) {
        quiesce();
        fold_quantile();  // checkpoint covers the whole prefix
        WriteCheckpoint(lanes, total, stats);
        next_checkpoint += options_.checkpoint_every;
      }
      if (snapshotting && total >= next_snapshot) {
        quiesce();
        fold_quantile();  // snapshot covers the whole prefix
        PublishSnapshot(lanes, total, stats);
        next_snapshot += snapshot_every_;
      }
    }
  } catch (...) {
    stop_workers();  // never leak a running thread past the engine
    throw;
  }

  stop_workers();

  // Workers are joined (a full barrier), so the remaining quantile runs
  // are safe to drain without a quiesce.
  fold_quantile();

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
    merged_.Merge(lane->partial);
    if (distinct_.has_value() && lane->kmv.has_value()) {
      distinct_->Merge(*lane->kmv);
    }
    if (subpop_.has_value() && lane->subpop.has_value()) {
      subpop_->Merge(*lane->subpop);
    }
    ++stats.merges;
  }
  stats.kept = run_kept;
  total_seen_ += stats.tuples;
  total_kept_ += run_kept;
  initial_tuples_ = total;
  stats.final_p = p_;
  stats.seconds = timer.ElapsedSeconds();

  if (snapshot_hook_ != nullptr) {
    // Final snapshot: everything is folded into merged_/distinct_ now, so
    // publish from the engine state with no lanes to fold (also covers
    // SetSnapshotHook(hook, 0) — publish-at-end-only).
    const std::vector<std::unique_ptr<Lane>> no_lanes;
    PublishSnapshot(no_lanes, total, stats);
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
