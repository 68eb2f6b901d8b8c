// Statistical validation of the two PR-10 query families over shed
// streams, end to end through the real 3-shard engine (router, SPSC rings,
// positional shedding, per-lane partials, position-ordered quantile fold,
// merge):
//
//   * Quantile claim: the service's total rank-error bound — KLL
//     compaction term z·sqrt(rank_error_var)/n_kept inflated by the
//     Bernoulli CLT term z·sqrt(q(1−q)(1−p̂)/(p̂·N)) at the realized rate —
//     covers the true (pre-shed) rank of the returned value at its nominal
//     level, for p ∈ {1, 0.25, 0.05}.
//   * Subpopulation claim: the Cohen–Kaplan Horvitz–Thompson estimate with
//     the stacked bottom-k + shedding variance, wrapped in its CLT
//     interval, covers the exact pre-shed subpopulation weight at its
//     nominal level, same three rates.
//
// Coverage acceptance follows the PR-5 discipline: with T seeded trials a
// nominal-level interval may undershoot by sampling noise, so accept
// coverage >= level − (5·sqrt(level(1−level)/T) + 0.02). All randomness is
// seeded; a failure reproduces exactly.
//
// A third test pins the bit-exactness acceptance criterion directly: the
// serialized quantile and subpop sketches are byte-identical at any shard
// count, because positional shedding fixes the kept set and the engine
// folds quantile updates in stream-position order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/core/confidence.h"
#include "src/core/subpop_estimators.h"
#include "src/data/zipf.h"
#include "src/sketch/fagms.h"
#include "src/sketch/serialize.h"
#include "src/stream/shard_engine.h"
#include "src/stream/source.h"
#include "src/util/rng.h"

namespace sketchsample {
namespace {

constexpr int kTrials = 320;  // ISSUE floor: >= 320 seeded trials per claim
constexpr size_t kTuples = 1500;
constexpr size_t kShards = 3;
constexpr size_t kZipfDomain = 1000;
constexpr double kLevel = 0.95;
constexpr size_t kQuantileK = 128;
constexpr size_t kSubpopK = 128;
const double kRates[] = {1.0, 0.25, 0.05};

// PR-5 coverage-noise allowance: 5-sigma binomial noise on the empirical
// coverage plus a 2% asymptotic-approximation cushion.
double CoverageSlack(double level) {
  return 5.0 * std::sqrt(level * (1.0 - level) / kTrials) + 0.02;
}

SketchParams SmallFagms(uint64_t seed) {
  SketchParams params;
  params.rows = 1;
  params.buckets = 64;
  params.seed = seed;
  return params;
}

struct EngineAnswer {
  KllSketch quantile{8, 0};
  KeyedKmvSketch subpop{2, 0};
  uint64_t position = 0;
  uint64_t kept = 0;
};

// Every snapshot boundary folds the lanes' kept runs into the KLL; this
// hook drops the snapshots and leaves the folds.
class DroppingHook final : public ShardSnapshotHook<FagmsSketch> {
 public:
  void Publish(ShardEngineSnapshot<FagmsSketch>) override {}
};

// The full concurrent path — no shortcut around the engine.
EngineAnswer RunThroughEngine(const std::vector<uint64_t>& stream, double p,
                              uint64_t root_seed, size_t shards = kShards) {
  ShardEngineOptions opts;
  opts.shards = shards;
  opts.chunk_tuples = 64;  // several chunks per lane even on small streams
  opts.shed_p = p;
  opts.seed = root_seed;
  opts.quantile_k = kQuantileK;
  opts.subpop_k = kSubpopK;
  ShardEngine<FagmsSketch> engine(FagmsSketch(SmallFagms(root_seed)), opts);
  DroppingHook hook;
  engine.SetSnapshotHook(&hook, 256);  // many folds per run: boundaries matter
  VectorSource source(stream);
  const ShardEngineStats stats = engine.Run(source);
  EXPECT_TRUE(stats.ended);
  EngineAnswer answer;
  answer.quantile = *engine.quantile();
  answer.subpop = *engine.subpop();
  answer.position = engine.total_seen();
  answer.kept = engine.total_kept();
  return answer;
}

// Exact rank interval of `value` in the pre-shed stream: a value occupies
// [count(< v), count(<= v)] / N, and any rank inside is exactly right.
void ExactRankInterval(const std::vector<uint64_t>& stream, uint64_t value,
                       double* lo, double* hi) {
  uint64_t below = 0, at_or_below = 0;
  for (uint64_t v : stream) {
    if (v < value) ++below;
    if (v <= value) ++at_or_below;
  }
  const double n = static_cast<double>(stream.size());
  *lo = static_cast<double>(below) / n;
  *hi = static_cast<double>(at_or_below) / n;
}

TEST(QuantileValidationTest, RankErrorBoundCoversTrueRankAtEveryRate) {
  const double z = NormalQuantile(0.5 * (1.0 + kLevel));
  const double probes[] = {0.1, 0.5, 0.9};
  for (const double p : kRates) {
    int covered = 0, total = 0;
    double worst_excess = 0.0;
    for (int t = 0; t < kTrials; ++t) {
      const uint64_t salt = MixSeed(0x514e544c, static_cast<uint64_t>(t));
      ZipfSampler sampler(kZipfDomain, 1.0);
      Xoshiro256 rng(MixSeed(salt, 1));
      const std::vector<uint64_t> stream = sampler.Stream(kTuples, rng);
      const EngineAnswer ans = RunThroughEngine(stream, p, MixSeed(salt, 2));
      if (ans.kept == 0) continue;
      const double realized =
          static_cast<double>(ans.kept) / static_cast<double>(ans.position);
      for (const double q : probes) {
        const double eps_sketch = z * ans.quantile.RankErrorStddev();
        double eps_sampling = 0.0;
        if (realized < 1.0) {
          eps_sampling =
              z * std::sqrt(q * (1.0 - q) * (1.0 - realized) /
                            (realized * static_cast<double>(ans.position)));
        }
        const double eps = eps_sketch + eps_sampling;
        const uint64_t value = ans.quantile.EstimateQuantile(q);
        double rank_lo = 0, rank_hi = 0;
        ExactRankInterval(stream, value, &rank_lo, &rank_hi);
        const double error =
            std::max({0.0, rank_lo - q, q - rank_hi});
        ++total;
        if (error <= eps) {
          ++covered;
        } else {
          worst_excess = std::max(worst_excess, error - eps);
        }
      }
    }
    ASSERT_GT(total, 0);
    const double coverage =
        static_cast<double>(covered) / static_cast<double>(total);
    EXPECT_GE(coverage, kLevel - CoverageSlack(kLevel))
        << "p = " << p << ": " << covered << "/" << total
        << " within bound, worst excess " << worst_excess;
  }
}

TEST(SubpopValidationTest, IntervalCoversExactWeightAtEveryRate) {
  // keys ≡ 1 (mod 3): about a third of the stream. The interval is a CLT
  // interval, so validate it in its CLT regime: near-uniform per-key
  // weights (skew 0 → each matched sample entry contributes comparably to
  // the Horvitz–Thompson sum). Under heavy zipf skew the sum is dominated
  // by a handful of keys and no plug-in CLT interval attains nominal
  // coverage at bottom-k sample sizes — a property of the estimator class,
  // not a bug this suite could catch. Across the three rates this hits
  // both estimator paths: at p = 1 and p = 0.25 the sketch saturates
  // (Horvitz–Thompson + threshold conditioning); at p = 0.05 few enough
  // distinct keys survive shedding that the exact-path/sampling-variance
  // branch is taken.
  const SubpopPredicate pred = ParseSubpopFilter("mod:3-1");
  for (const double p : kRates) {
    int covered = 0, total = 0;
    for (int t = 0; t < kTrials; ++t) {
      const uint64_t salt = MixSeed(0x53425050, static_cast<uint64_t>(t));
      ZipfSampler sampler(kZipfDomain, 0.0);
      Xoshiro256 rng(MixSeed(salt, 1));
      const std::vector<uint64_t> stream = sampler.Stream(kTuples, rng);
      uint64_t truth = 0;
      for (uint64_t v : stream) {
        if (pred.Matches(v)) ++truth;
      }
      const EngineAnswer ans = RunThroughEngine(stream, p, MixSeed(salt, 2));
      if (ans.kept == 0) continue;
      const double realized =
          static_cast<double>(ans.kept) / static_cast<double>(ans.position);
      const SubpopEstimate est =
          EstimateSubpopulation(ans.subpop, pred, realized);
      const ConfidenceInterval ci = SubpopInterval(est, kLevel);
      ++total;
      const double exact = static_cast<double>(truth);
      if (ci.low <= exact && exact <= ci.high) ++covered;
    }
    ASSERT_GT(total, 0);
    const double coverage =
        static_cast<double>(covered) / static_cast<double>(total);
    EXPECT_GE(coverage, kLevel - CoverageSlack(kLevel))
        << "p = " << p << ": " << covered << "/" << total << " covered";
  }
}

// Acceptance criterion, pinned directly: the quantile and subpop sketch
// states are byte-identical at any shard count. Positional shedding fixes
// the kept set independent of the partition, the keyed-KMV merge is an
// exact set union with summed weights, and the engine replays quantile
// updates in stream-position order regardless of which lane buffered them.
// The mod: filter tests divisibility with a multiply and a rotate instead
// of a division; it must agree with % on every key, for odd, even,
// power-of-two, prime and extreme moduli and residues on both ends.
TEST(SubpopPredicateTest, ModFilterAgreesWithRemainder) {
  Xoshiro256 rng(20261021);
  for (const uint64_t a :
       {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{10}, uint64_t{12},
        uint64_t{1} << 63, uint64_t{999999937}, UINT64_MAX}) {
    SCOPED_TRACE(a);
    for (const uint64_t b : {uint64_t{0}, a - 1, rng() % a}) {
      SubpopPredicate pred;
      pred.kind = SubpopPredicate::Kind::kMod;
      pred.a = a;
      pred.b = b;
      std::vector<uint64_t> keys = {0, b, a - 1, UINT64_MAX, UINT64_MAX - 1};
      for (int i = 0; i < 20000; ++i) keys.push_back(rng());
      // Keys near multiples of a, where an off-by-one would show.
      for (int i = 0; i < 2000; ++i) {
        const uint64_t base = (rng() / a) * a;
        keys.push_back(base + b);
        keys.push_back(base + b + 1);
        keys.push_back(base + b - 1);
      }
      for (const uint64_t key : keys) {
        ASSERT_EQ(pred.Matches(key), key % a == b) << "key " << key;
      }
    }
  }
}

TEST(QuantileSubpopShardingTest, SketchBytesIdenticalAtAnyShardCount) {
  ZipfSampler sampler(kZipfDomain, 1.0);
  Xoshiro256 rng(123);
  const std::vector<uint64_t> stream = sampler.Stream(6000, rng);
  // At p = 0.01 about half the 64-tuple chunks keep nothing, so the replay
  // must keep its lane turns across empty chunks too.
  for (const double p : {1.0, 0.25, 0.01}) {
    const EngineAnswer reference = RunThroughEngine(stream, p, 99, 1);
    const std::vector<uint8_t> quantile_bytes =
        SerializeSketch(reference.quantile);
    const std::vector<uint8_t> subpop_bytes =
        SerializeSketch(reference.subpop);
    for (const size_t shards : {2u, 3u, 5u, 8u}) {
      const EngineAnswer answer = RunThroughEngine(stream, p, 99, shards);
      EXPECT_EQ(answer.kept, reference.kept)
          << "p = " << p << ", " << shards << " shards";
      EXPECT_EQ(SerializeSketch(answer.quantile), quantile_bytes)
          << "p = " << p << ", " << shards << " shards";
      EXPECT_EQ(SerializeSketch(answer.subpop), subpop_bytes)
          << "p = " << p << ", " << shards << " shards";
    }
  }
}

}  // namespace
}  // namespace sketchsample
