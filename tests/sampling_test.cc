// Unit + property tests for src/sampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/data/frequency_vector.h"
#include "src/data/zipf.h"
#include "src/sampling/bernoulli.h"
#include "src/sampling/coefficients.h"
#include "src/sampling/with_replacement.h"
#include "src/sampling/without_replacement.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace sketchsample {
namespace {

// ---------------------------------------------------------------------------
// Coefficients (Eq 8).
// ---------------------------------------------------------------------------

TEST(CoefficientsTest, MatchesDefinition) {
  const auto c = ComputeCoefficients(100, 20);
  EXPECT_DOUBLE_EQ(c.alpha, 0.2);
  EXPECT_DOUBLE_EQ(c.alpha1, 19.0 / 99.0);
  EXPECT_DOUBLE_EQ(c.alpha2, 19.0 / 100.0);
  EXPECT_EQ(c.population, 100u);
  EXPECT_EQ(c.sample, 20u);
}

TEST(CoefficientsTest, FullSample) {
  const auto c = ComputeCoefficients(50, 50);
  EXPECT_DOUBLE_EQ(c.alpha, 1.0);
  EXPECT_DOUBLE_EQ(c.alpha1, 1.0);
  EXPECT_DOUBLE_EQ(c.alpha2, 49.0 / 50.0);
}

TEST(CoefficientsTest, SingletonPopulation) {
  const auto c = ComputeCoefficients(1, 1);
  EXPECT_DOUBLE_EQ(c.alpha, 1.0);
  EXPECT_DOUBLE_EQ(c.alpha1, 1.0);  // convention
}

TEST(CoefficientsTest, EmptyPopulationThrows) {
  EXPECT_THROW(ComputeCoefficients(0, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Bernoulli sampling.
// ---------------------------------------------------------------------------

TEST(BernoulliSamplerTest, RejectsBadProbability) {
  EXPECT_THROW(BernoulliSampler(-0.1, 1), std::invalid_argument);
  EXPECT_THROW(BernoulliSampler(1.1, 1), std::invalid_argument);
}

TEST(BernoulliSamplerTest, ExtremeProbabilities) {
  std::vector<uint64_t> stream(1000, 7);
  BernoulliSampler none(0.0, 1);
  EXPECT_TRUE(none.Sample(stream).empty());
  BernoulliSampler all(1.0, 1);
  EXPECT_EQ(all.Sample(stream).size(), 1000u);
}

TEST(BernoulliSamplerTest, SampleSizeIsBinomial) {
  constexpr size_t kN = 2000;
  constexpr double kP = 0.3;
  std::vector<uint64_t> stream(kN, 1);
  RunningStats sizes;
  for (int rep = 0; rep < 300; ++rep) {
    BernoulliSampler sampler(kP, MixSeed(10, rep));
    sizes.Add(static_cast<double>(sampler.Sample(stream).size()));
  }
  EXPECT_NEAR(sizes.Mean(), kN * kP, 4.0 * std::sqrt(kN * kP * (1 - kP)) /
                                         std::sqrt(300.0));
  EXPECT_NEAR(sizes.Variance(), kN * kP * (1 - kP),
              0.35 * kN * kP * (1 - kP));
}

TEST(BernoulliSamplerTest, PreservesOrder) {
  std::vector<uint64_t> stream(100);
  std::iota(stream.begin(), stream.end(), 0);
  BernoulliSampler sampler(0.5, 3);
  const auto sample = sampler.Sample(stream);
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
}

TEST(GeometricSkipTest, RejectsBadProbability) {
  EXPECT_THROW(GeometricSkipSampler(0.0, 1), std::invalid_argument);
  EXPECT_THROW(GeometricSkipSampler(1.5, 1), std::invalid_argument);
}

TEST(GeometricSkipTest, ProbabilityOneKeepsEverything) {
  GeometricSkipSampler sampler(1.0, 1);
  std::vector<uint64_t> stream(100, 9);
  EXPECT_EQ(sampler.Sample(stream).size(), 100u);
  EXPECT_EQ(sampler.NextSkip(), 0u);
}

TEST(GeometricSkipTest, SkipsAreGeometric) {
  constexpr double kP = 0.2;
  GeometricSkipSampler sampler(kP, 5);
  RunningStats skips;
  for (int i = 0; i < 50000; ++i) {
    skips.Add(static_cast<double>(sampler.NextSkip()));
  }
  // Geometric(p) on {0,1,...}: mean (1-p)/p, variance (1-p)/p².
  EXPECT_NEAR(skips.Mean(), (1 - kP) / kP, 0.1);
  EXPECT_NEAR(skips.Variance(), (1 - kP) / (kP * kP), 1.5);
}

TEST(GeometricSkipTest, MatchesCoinFlipLaw) {
  // The two Bernoulli implementations must agree in distribution: compare
  // mean kept count and per-value inclusion frequency.
  constexpr size_t kN = 1000;
  constexpr double kP = 0.1;
  std::vector<uint64_t> stream(kN);
  std::iota(stream.begin(), stream.end(), 0);

  RunningStats coin_sizes, skip_sizes;
  std::vector<int> coin_hits(kN, 0), skip_hits(kN, 0);
  constexpr int kReps = 400;
  for (int rep = 0; rep < kReps; ++rep) {
    BernoulliSampler coin(kP, MixSeed(100, rep));
    GeometricSkipSampler skip(kP, MixSeed(200, rep));
    const auto a = coin.Sample(stream);
    const auto b = skip.Sample(stream);
    coin_sizes.Add(static_cast<double>(a.size()));
    skip_sizes.Add(static_cast<double>(b.size()));
    for (uint64_t v : a) ++coin_hits[v];
    for (uint64_t v : b) ++skip_hits[v];
  }
  EXPECT_NEAR(coin_sizes.Mean(), skip_sizes.Mean(),
              5.0 * std::sqrt(kN * kP / kReps) * 2);
  // Aggregate per-position inclusion counts agree on average.
  const double coin_avg =
      std::accumulate(coin_hits.begin(), coin_hits.end(), 0.0) / kN;
  const double skip_avg =
      std::accumulate(skip_hits.begin(), skip_hits.end(), 0.0) / kN;
  EXPECT_NEAR(coin_avg, kReps * kP, 3.0);
  EXPECT_NEAR(skip_avg, kReps * kP, 3.0);
}

// The positional sampler is the ingest engine's shed stage: the decision
// for absolute position i is a pure function of (seed, i, p).
TEST(PositionalBernoulliSamplerTest, RejectsBadProbability) {
  EXPECT_THROW(PositionalBernoulliSampler(-0.1, 1), std::invalid_argument);
  EXPECT_THROW(PositionalBernoulliSampler(1.1, 1), std::invalid_argument);
}

TEST(PositionalBernoulliSamplerTest, ExtremeProbabilities) {
  const PositionalBernoulliSampler none(0.0, 3);
  const PositionalBernoulliSampler all(1.0, 3);
  for (uint64_t i = 0; i < 10000; ++i) {
    ASSERT_FALSE(none.Keep(i)) << i;
    ASSERT_TRUE(all.Keep(i)) << i;
  }
}

TEST(PositionalBernoulliSamplerTest, KeptCountIsBinomial) {
  constexpr uint64_t kN = 100000;
  constexpr double kP = 0.25;
  const PositionalBernoulliSampler sampler(kP, 79);
  uint64_t kept = 0;
  for (uint64_t i = 0; i < kN; ++i) kept += sampler.Keep(i) ? 1 : 0;
  // Binomial(N, p): within 5 standard deviations of N·p.
  const double sd = std::sqrt(kN * kP * (1 - kP));
  EXPECT_NEAR(static_cast<double>(kept), kN * kP, 5.0 * sd);
}

TEST(PositionalBernoulliSamplerTest, KeepBatchMatchesKeepLoop) {
  constexpr uint64_t kBase = 1000003;
  std::vector<uint64_t> values(5000);
  std::iota(values.begin(), values.end(), 17);
  for (double p : {0.0, 0.37, 1.0}) {
    SCOPED_TRACE(p);
    const PositionalBernoulliSampler sampler(p, 83);
    std::vector<uint64_t> expect;
    for (size_t i = 0; i < values.size(); ++i) {
      if (sampler.Keep(kBase + i)) expect.push_back(values[i]);
    }

    std::vector<uint64_t> out(values.size());
    out.resize(
        sampler.KeepBatch(kBase, values.data(), values.size(), out.data()));
    EXPECT_EQ(out, expect);

    std::vector<uint64_t> in_place = values;  // out == values
    in_place.resize(sampler.KeepBatch(kBase, in_place.data(),
                                      in_place.size(), in_place.data()));
    EXPECT_EQ(in_place, expect);

    // Chunk boundaries do not matter: position, not batching, decides.
    std::vector<uint64_t> chunked;
    std::vector<uint64_t> scratch(7);
    for (size_t pos = 0; pos < values.size(); pos += 7) {
      const size_t n = std::min<size_t>(7, values.size() - pos);
      const size_t k =
          sampler.KeepBatch(kBase + pos, values.data() + pos, n,
                            scratch.data());
      chunked.insert(chunked.end(), scratch.begin(), scratch.begin() + k);
    }
    EXPECT_EQ(chunked, expect);

    uint64_t untouched = 42;
    EXPECT_EQ(sampler.KeepBatch(kBase, values.data(), 0, &untouched), 0u);
    EXPECT_EQ(untouched, 42u);
  }
}

// ---------------------------------------------------------------------------
// Sampling with replacement.
// ---------------------------------------------------------------------------

TEST(WithReplacementTest, ExactSampleSize) {
  std::vector<uint64_t> relation = {1, 2, 3};
  Xoshiro256 rng(1);
  EXPECT_EQ(SampleWithReplacement(relation, 100, rng).size(), 100u);
  EXPECT_TRUE(SampleWithReplacement(relation, 0, rng).empty());
}

TEST(WithReplacementTest, EmptyRelationThrows) {
  std::vector<uint64_t> empty;
  Xoshiro256 rng(1);
  EXPECT_THROW(SampleWithReplacement(empty, 1, rng), std::invalid_argument);
}

TEST(WithReplacementTest, CanExceedPopulationSize) {
  std::vector<uint64_t> relation = {5};
  Xoshiro256 rng(2);
  const auto sample = SampleWithReplacement(relation, 10, rng);
  EXPECT_EQ(sample.size(), 10u);
  for (uint64_t v : sample) EXPECT_EQ(v, 5u);
}

TEST(WithReplacementTest, MarginalsAreProportional) {
  // Value 0 appears 3x as often as value 1 in the relation.
  std::vector<uint64_t> relation;
  for (int i = 0; i < 300; ++i) relation.push_back(0);
  for (int i = 0; i < 100; ++i) relation.push_back(1);
  Xoshiro256 rng(3);
  const auto sample = SampleWithReplacement(relation, 40000, rng);
  const double zeros = static_cast<double>(
      std::count(sample.begin(), sample.end(), 0ull));
  EXPECT_NEAR(zeros / 40000.0, 0.75, 0.02);
}

TEST(WithReplacementTest, FrequencyPathMatchesTuplePath) {
  FrequencyVector freq(std::vector<uint64_t>{30, 0, 10, 60});
  Xoshiro256 rng(4);
  const auto sample =
      SampleWithReplacementFromFrequencies(freq, 50000, rng);
  EXPECT_EQ(sample.size(), 50000u);
  const FrequencyVector got = FrequencyVector::FromStream(sample, 4);
  EXPECT_EQ(got.count(1), 0u);
  EXPECT_NEAR(static_cast<double>(got.count(3)) / 50000.0, 0.6, 0.02);
  EXPECT_NEAR(static_cast<double>(got.count(0)) / 50000.0, 0.3, 0.02);
}

TEST(WithReplacementTest, FrequencyPathEmptyThrows) {
  FrequencyVector empty(5);
  Xoshiro256 rng(5);
  EXPECT_THROW(SampleWithReplacementFromFrequencies(empty, 1, rng),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Sampling without replacement.
// ---------------------------------------------------------------------------

TEST(WithoutReplacementTest, ExactSizeAndSubset) {
  std::vector<uint64_t> relation(100);
  std::iota(relation.begin(), relation.end(), 1000);
  Xoshiro256 rng(1);
  const auto sample = SampleWithoutReplacement(relation, 30, rng);
  EXPECT_EQ(sample.size(), 30u);
  // Each position picked at most once -> values are distinct here because
  // the relation has distinct values.
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (uint64_t v : sample) {
    EXPECT_GE(v, 1000u);
    EXPECT_LT(v, 1100u);
  }
}

TEST(WithoutReplacementTest, ClampsToPopulation) {
  std::vector<uint64_t> relation = {1, 2, 3};
  Xoshiro256 rng(2);
  const auto sample = SampleWithoutReplacement(relation, 10, rng);
  EXPECT_EQ(sample.size(), 3u);
}

TEST(WithoutReplacementTest, EveryElementEquallyLikely) {
  std::vector<uint64_t> relation(20);
  std::iota(relation.begin(), relation.end(), 0);
  std::vector<int> hits(20, 0);
  constexpr int kReps = 20000;
  for (int rep = 0; rep < kReps; ++rep) {
    Xoshiro256 rng(MixSeed(50, rep));
    for (uint64_t v : SampleWithoutReplacement(relation, 5, rng)) ++hits[v];
  }
  // Each element is included with probability 5/20 = 0.25.
  for (int h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / kReps, 0.25, 0.02);
  }
}

TEST(ReservoirSamplerTest, FillsThenMaintainsCapacity) {
  ReservoirSampler reservoir(10, 1);
  for (uint64_t v = 0; v < 5; ++v) reservoir.Offer(v);
  EXPECT_EQ(reservoir.sample().size(), 5u);
  for (uint64_t v = 5; v < 1000; ++v) reservoir.Offer(v);
  EXPECT_EQ(reservoir.sample().size(), 10u);
  EXPECT_EQ(reservoir.seen(), 1000u);
}

TEST(ReservoirSamplerTest, UniformInclusionProbability) {
  constexpr uint64_t kStream = 100;
  constexpr uint64_t kCapacity = 10;
  std::vector<int> hits(kStream, 0);
  constexpr int kReps = 20000;
  for (int rep = 0; rep < kReps; ++rep) {
    ReservoirSampler reservoir(kCapacity, MixSeed(60, rep));
    for (uint64_t v = 0; v < kStream; ++v) reservoir.Offer(v);
    for (uint64_t v : reservoir.sample()) ++hits[v];
  }
  for (uint64_t v = 0; v < kStream; ++v) {
    EXPECT_NEAR(static_cast<double>(hits[v]) / kReps, 0.1, 0.015)
        << "element " << v;
  }
}

TEST(PrefixScanTest, ShuffledPrefixHasHypergeometricFrequencies) {
  // The first m tuples of a shuffled relation form a WOR sample: check the
  // mean sampled frequency of a heavy value matches α·f_i.
  FrequencyVector freq(std::vector<uint64_t>{400, 100});
  RunningStats heavy;
  constexpr uint64_t kPrefix = 100;
  for (int rep = 0; rep < 500; ++rep) {
    auto stream = freq.ToTupleStream();
    Xoshiro256 rng(MixSeed(70, rep));
    Shuffle(stream, rng);
    const double zeros = static_cast<double>(
        std::count(stream.begin(), stream.begin() + kPrefix, 0ull));
    heavy.Add(zeros);
  }
  // α = 100/500 = 0.2; E = 0.2 * 400 = 80.
  EXPECT_NEAR(heavy.Mean(), 80.0, 1.5);
}

}  // namespace
}  // namespace sketchsample
