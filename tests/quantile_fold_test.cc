// Differential test of the engine's position-ordered KLL fold against an
// engine-free reference: a plain KllSketch fed, in position order, exactly
// the tuples PositionalBernoulliSampler keeps. Every published snapshot's
// KLL and every checkpoint's KLL blob must serialize byte-identical to the
// reference at that snapshot's or checkpoint's position, at every shard
// count, rate and boundary cadence below.
//
// The other quantile tests compare the engine with itself at another shard
// count, and only its final state; a kept run lost or replayed out of order
// on its way from a lane into the KLL passes those and fails this.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/data/zipf.h"
#include "src/sampling/bernoulli.h"
#include "src/sketch/fagms.h"
#include "src/sketch/kll.h"
#include "src/sketch/serialize.h"
#include "src/stream/checkpoint.h"
#include "src/stream/shard_engine.h"
#include "src/stream/source.h"
#include "src/util/rng.h"

namespace sketchsample {
namespace {

constexpr uint64_t kRootSeed = 0x51f0;
constexpr size_t kQuantileK = 200;
// Crosses the engine's fold cadence twice, and ends between boundaries.
constexpr uint64_t kTuples = 2 * kShardQuantileFoldEvery + 7001;

using Cuts = std::vector<std::pair<uint64_t, std::vector<uint8_t>>>;

class RecordingHook final : public ShardSnapshotHook<FagmsSketch> {
 public:
  void Publish(ShardEngineSnapshot<FagmsSketch> snapshot) override {
    cuts.emplace_back(snapshot.position, SerializeSketch(*snapshot.quantile));
  }
  Cuts cuts;
};

class RecordingSink final : public CheckpointSink {
 public:
  void Write(const std::vector<uint8_t>& bytes,
             uint64_t source_tuples) override {
    cuts.emplace_back(source_tuples, DeserializeCheckpoint(bytes).quantile);
  }
  Cuts cuts;
};

// The reference KLL's bytes at each of `positions`, and the number of
// intervals between consecutive positions (from 0) that keep a tuple.
struct Reference {
  std::map<uint64_t, std::vector<uint8_t>> bytes;
  uint64_t nonempty_intervals = 0;
};

Reference BuildReference(const std::vector<uint64_t>& stream, double p,
                         const std::set<uint64_t>& positions) {
  const PositionalBernoulliSampler sampler(p, kRootSeed);
  KllSketch kll(kQuantileK, ShardQuantileSeed(kRootSeed));
  Reference reference;
  uint64_t next = 0;
  for (const uint64_t position : positions) {
    bool kept_any = false;
    for (; next < position; ++next) {
      if (!sampler.Keep(next)) continue;
      kll.Update(stream[next]);
      kept_any = true;
    }
    reference.bytes[position] = SerializeSketch(kll);
    if (kept_any) ++reference.nonempty_intervals;
  }
  return reference;
}

// Multiples of `every` in (0, kTuples]; none when `every` is 0.
std::set<uint64_t> Multiples(uint64_t every) {
  std::set<uint64_t> positions;
  for (uint64_t at = every; every > 0 && at <= kTuples; at += every) {
    positions.insert(at);
  }
  return positions;
}

struct Cadence {
  uint64_t snapshot_every;
  uint64_t checkpoint_every;
};

TEST(QuantileFoldTest, EveryCutMatchesEngineFreeReference) {
  ZipfSampler zipf(100000, 1.0);
  Xoshiro256 rng(kRootSeed);
  const std::vector<uint64_t> stream = zipf.Stream(kTuples, rng);
  SketchParams params;
  params.rows = 1;
  params.buckets = 64;
  params.seed = 3;

  const Cadence cadences[] = {{0, 0}, {1000, 0}, {8192, 20000}};
  for (const double p : {1.0, 0.25, 0.01}) {
    for (const Cadence& cadence : cadences) {
      // Every position the engine folds at: the fold cadence, each
      // checkpoint and snapshot boundary, and the end of the run.
      const std::set<uint64_t> snapshots = Multiples(cadence.snapshot_every);
      const std::set<uint64_t> checkpoints =
          Multiples(cadence.checkpoint_every);
      std::set<uint64_t> folds = Multiples(kShardQuantileFoldEvery);
      folds.insert(snapshots.begin(), snapshots.end());
      folds.insert(checkpoints.begin(), checkpoints.end());
      folds.insert(kTuples);
      const Reference reference = BuildReference(stream, p, folds);

      for (const size_t shards : {1u, 2u, 3u, 8u}) {
        SCOPED_TRACE("p " + std::to_string(p) + " shards " +
                     std::to_string(shards) + " snapshot_every " +
                     std::to_string(cadence.snapshot_every));
        ShardEngineOptions opts;
        opts.shards = shards;
        opts.chunk_tuples = 384;  // several runs per lane between folds
        opts.shed_p = p;
        opts.seed = kRootSeed;
        opts.quantile_k = kQuantileK;
        RecordingSink sink;
        if (cadence.checkpoint_every > 0) {
          opts.checkpoint_sink = &sink;
          opts.checkpoint_every = cadence.checkpoint_every;
        }
        ShardEngine<FagmsSketch> engine(FagmsSketch(params), opts);
        RecordingHook hook;
        if (cadence.snapshot_every > 0) {
          engine.SetSnapshotHook(&hook, cadence.snapshot_every);
        }
        VectorSource source(stream);
        const ShardEngineStats stats = engine.Run(source);
        ASSERT_TRUE(stats.ended);

        // One snapshot per boundary plus the final one; one checkpoint per
        // boundary.
        const size_t published =
            cadence.snapshot_every > 0 ? snapshots.size() + 1 : 0;
        ASSERT_EQ(hook.cuts.size(), published);
        ASSERT_EQ(sink.cuts.size(), checkpoints.size());
        for (const Cuts* cuts : {&hook.cuts, &sink.cuts}) {
          for (const auto& [position, bytes] : *cuts) {
            ASSERT_TRUE(reference.bytes.count(position)) << position;
            EXPECT_TRUE(bytes == reference.bytes.at(position))
                << "KLL differs from the reference at position " << position;
          }
        }
        EXPECT_TRUE(SerializeSketch(*engine.quantile()) ==
                    reference.bytes.at(kTuples));

        // Waiting for a fold is not a quiesce: one quiesce per fold-cadence,
        // checkpoint and snapshot boundary inside the run. A fold is
        // counted when it has kept values to replay.
        EXPECT_EQ(stats.quiesces, Multiples(kShardQuantileFoldEvery).size() +
                                      checkpoints.size() + snapshots.size());
        EXPECT_EQ(stats.quantile_folds, reference.nonempty_intervals);
      }
    }
  }
}

}  // namespace
}  // namespace sketchsample
