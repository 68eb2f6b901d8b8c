// Tests for the adaptive load-shedding controller (src/stream/
// shed_controller.h): control-law convergence under overload, honest
// estimation at the realized (not nominal) rate per Props 13/14, and Eq 26
// confidence-interval coverage across seeds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/core/corrections.h"
#include "src/core/variance.h"
#include "src/data/frequency_vector.h"
#include "src/sketch/agms.h"
#include "src/sketch/fagms.h"
#include "src/stream/shard_engine.h"
#include "src/stream/shed_controller.h"
#include "src/stream/source.h"
#include "src/util/rng.h"

namespace sketchsample {
namespace {

TEST(ShedControllerTest, RejectsInvalidOptions) {
  ShedControllerOptions opts;
  opts.min_p = 0.0;
  EXPECT_THROW(ShedController{opts}, std::invalid_argument);
  opts = ShedControllerOptions{};
  opts.min_p = 0.6;
  opts.max_p = 0.5;
  EXPECT_THROW(ShedController{opts}, std::invalid_argument);
  opts = ShedControllerOptions{};
  opts.initial_p = 0.01;  // below default min_p = 0.05
  EXPECT_THROW(ShedController{opts}, std::invalid_argument);
  opts = ShedControllerOptions{};
  opts.window_tuples = 0;
  EXPECT_THROW(ShedController{opts}, std::invalid_argument);
}

TEST(ShedControllerTest, ConvergesUnderTenfoldOverload) {
  // Source offers 10x what the sink can absorb. The proportional law must
  // bring the kept count within 10% of the budget and hold it there.
  ShedControllerOptions opts;
  opts.capacity_per_window = 1000.0;
  opts.min_p = 0.01;
  ShedController controller(opts);

  constexpr uint64_t kOffered = 10000;
  double p = controller.p();
  double kept = 0;
  for (int w = 0; w < 20; ++w) {
    kept = std::round(p * static_cast<double>(kOffered));
    p = controller.OnWindow(kOffered, static_cast<uint64_t>(kept));
  }
  EXPECT_NEAR(p, 0.1, 0.02);
  EXPECT_NEAR(kept, 1000.0, 100.0);  // throughput within 10% of target
  EXPECT_EQ(controller.windows(), 20u);
}

TEST(ShedControllerTest, ProbesUpwardUnderHeadroom) {
  ShedControllerOptions opts;
  opts.initial_p = 0.2;
  opts.capacity_per_window = 1000.0;
  opts.increase_step = 0.05;
  ShedController controller(opts);
  // Kept far below headroom * capacity: additive probe, one step per window.
  double p = controller.OnWindow(1000, 200);
  EXPECT_DOUBLE_EQ(p, 0.25);
  p = controller.OnWindow(1000, 250);
  EXPECT_DOUBLE_EQ(p, 0.30);
  // Probing never exceeds max_p.
  for (int i = 0; i < 50; ++i) p = controller.OnWindow(1000, 100);
  EXPECT_DOUBLE_EQ(p, opts.max_p);
}

TEST(ShedControllerTest, BacklogSuppressesRecovery) {
  ShedControllerOptions opts;
  opts.capacity_per_window = 1000.0;
  opts.min_p = 0.01;
  ShedController controller(opts);
  // One huge burst leaves a backlog; subsequent in-budget windows must not
  // probe upward (additively) until the backlog drains — only retarget
  // toward the capacity-minus-drain budget.
  controller.OnWindow(10000, 10000);
  EXPECT_GT(controller.backlog(), 0.0);
  const double p_after_burst = controller.p();
  const double p_next = controller.OnWindow(1000, 400);
  EXPECT_GT(controller.backlog(), 0.0);  // still draining
  EXPECT_LT(p_next, p_after_burst + opts.increase_step);  // no probe fired
  // The retarget aims kept at capacity minus the drain allowance.
  EXPECT_NEAR(p_next, p_after_burst * 500.0 / 400.0, 1e-12);
}

TEST(ShedControllerTest, NoCapacityMeansNoReaction) {
  ShedControllerOptions opts;  // capacity 0, target_tps 0
  ShedController controller(opts);
  EXPECT_DOUBLE_EQ(controller.OnWindow(5000, 5000), 1.0);
  EXPECT_EQ(controller.total_offered(), 5000u);
}

TEST(ShedControllerTest, RealizedRateAndStateRoundtrip) {
  ShedControllerOptions opts;
  opts.capacity_per_window = 500.0;
  ShedController controller(opts);
  controller.OnWindow(1000, 700);
  controller.OnWindow(1000, 300);
  EXPECT_DOUBLE_EQ(controller.RealizedRate(), 0.5);

  const ShedController::State saved = controller.SaveState();
  ShedController other(opts);
  other.RestoreState(saved);
  EXPECT_DOUBLE_EQ(other.p(), controller.p());
  EXPECT_DOUBLE_EQ(other.backlog(), controller.backlog());
  EXPECT_EQ(other.windows(), controller.windows());
  EXPECT_DOUBLE_EQ(other.RealizedRate(), controller.RealizedRate());
}

TEST(ShedControllerTest, RealizedEstimatesMatchManualCorrections) {
  const double raw = 1234.5, p = 0.3, q = 0.6;
  const uint64_t kept = 789;
  EXPECT_DOUBLE_EQ(
      RealizedSelfJoinEstimate(raw, p, kept),
      raw / (p * p) - (1.0 - p) / (p * p) * static_cast<double>(kept));
  EXPECT_DOUBLE_EQ(RealizedJoinEstimate(raw, p, q), raw / (p * q));
}

// kept/offered over everything the engine has routed.
double RealizedRate(const ShardEngine<AgmsSketch>& engine) {
  return static_cast<double>(engine.total_kept()) /
         static_cast<double>(engine.total_seen());
}

// End-to-end §VI-A overload deployment through the ingest engine:
// source -> adaptive positional shed -> sketch, with the source offering
// 10x what the sink can absorb. The controller must converge to a steady
// rate with tail throughput within 10% of the budget, and the answer
// corrected at the realized rate with an Eq 26 interval must cover the
// exact self-join size.
struct OverloadRun {
  uint64_t forwarded = 0;
  double final_p = 0;
  double realized_p = 0;
  double raw_selfjoin = 0;
  ShardEngineStats stats;
};

OverloadRun RunOverloadPipeline(uint64_t max_tuples) {
  constexpr uint64_t kCount = 400000;
  ZipfSource source(500, 1.0, kCount, 21);
  SketchParams params;
  params.rows = 256;
  params.seed = 31;

  ShedControllerOptions copts;
  copts.initial_p = 0.3;
  copts.capacity_per_window = 2000.0;  // 10x overload at 20000 per window
  copts.min_p = 0.02;
  copts.window_tuples = 20000;
  ShedController controller(copts);

  ShardEngineOptions eopts;
  eopts.shed_p = 0.3;
  eopts.seed = 41;
  eopts.max_tuples = max_tuples;
  eopts.controller = &controller;
  ShardEngine<AgmsSketch> engine(AgmsSketch(params), eopts);
  OverloadRun run;
  run.stats = engine.Run(source);
  run.forwarded = engine.total_kept();
  run.final_p = engine.p();
  run.realized_p = RealizedRate(engine);
  run.raw_selfjoin = engine.merged().EstimateSelfJoin();
  return run;
}

TEST(ShedControllerTest, AdaptivePipelineOverloadEndToEnd) {
  constexpr uint64_t kCount = 400000;
  constexpr size_t kDomain = 500;
  constexpr uint64_t kWindow = 20000;
  constexpr double kCapacity = 2000.0;

  const OverloadRun full = RunOverloadPipeline(0);
  EXPECT_TRUE(full.stats.ended);
  EXPECT_EQ(full.stats.tuples, kCount);
  EXPECT_EQ(full.stats.windows, kCount / kWindow);
  // Converged: steady p near capacity/window = 0.1.
  EXPECT_NEAR(full.final_p, 0.1, 0.03);

  // Tail throughput: rerun the identical deterministic trajectory, stopped
  // five windows early, and diff the kept counts — per-window kept over the
  // steady tail must sit within 10% of the budget.
  const OverloadRun prefix = RunOverloadPipeline(kCount - 5 * kWindow);
  const double tail_kept_per_window =
      static_cast<double>(full.forwarded - prefix.forwarded) / 5.0;
  EXPECT_NEAR(tail_kept_per_window, kCapacity, 0.1 * kCapacity);

  // Honest answer at the realized rate.
  std::vector<uint64_t> all;
  ZipfSource mirror(kDomain, 1.0, kCount, 21);  // same seed -> same stream
  while (auto v = mirror.Next()) all.push_back(*v);
  const FrequencyVector fv = FrequencyVector::FromStream(all, kDomain);
  const double truth = fv.F2();

  const double estimate = RealizedSelfJoinEstimate(
      full.raw_selfjoin, full.realized_p, full.forwarded);
  const JoinStatistics s = ComputeJoinStatistics(fv, fv);
  const ConfidenceInterval ci =
      RealizedSelfJoinInterval(estimate, s, full.realized_p, 256, 0.99);
  EXPECT_GT(truth, ci.low);
  EXPECT_LT(truth, ci.high);
  EXPECT_LT(std::abs(estimate - truth) / truth, 0.2);
}

// Satellite: the Bernoulli join estimator evaluated at the *realized* rate
// stays within the Prop 13 (Eq 25) error bound on a skewed Zipf workload.
TEST(ShedControllerTest, RealizedRateJoinWithinProp13Bound) {
  constexpr uint64_t kCount = 50000;
  constexpr size_t kDomain = 300;
  constexpr double kSkew = 1.5;  // skewed: heavy hitters dominate the join

  SketchParams params;
  params.rows = 256;
  params.seed = 77;
  const AgmsSketch proto(params);  // same seed: joinable pair

  ShardEngineOptions opts_a;
  opts_a.shed_p = 0.3;
  opts_a.seed = 101;
  ShardEngineOptions opts_b;
  opts_b.shed_p = 0.5;
  opts_b.seed = 103;
  ShardEngine<AgmsSketch> shed_a(proto, opts_a);
  ShardEngine<AgmsSketch> shed_b(proto, opts_b);

  ZipfSource src_a(kDomain, kSkew, kCount, 1);
  ZipfSource src_b(kDomain, kSkew, kCount, 2);
  shed_a.Run(src_a);
  shed_b.Run(src_b);

  std::vector<uint64_t> all_a, all_b;
  ZipfSource mirror_a(kDomain, kSkew, kCount, 1);
  ZipfSource mirror_b(kDomain, kSkew, kCount, 2);
  while (auto v = mirror_a.Next()) all_a.push_back(*v);
  while (auto v = mirror_b.Next()) all_b.push_back(*v);
  const FrequencyVector fa = FrequencyVector::FromStream(all_a, kDomain);
  const FrequencyVector fb = FrequencyVector::FromStream(all_b, kDomain);
  const double truth = ExactJoinSize(fa, fb);

  const double rp = RealizedRate(shed_a);
  const double rq = RealizedRate(shed_b);
  // Realized rates track the nominal ones but are not equal to them; the
  // estimator must scale by what actually happened.
  EXPECT_NEAR(rp, 0.3, 0.02);
  EXPECT_NEAR(rq, 0.5, 0.02);

  const double estimate = RealizedJoinEstimate(
      shed_a.merged().EstimateJoin(shed_b.merged()), rp, rq);
  const JoinStatistics s = ComputeJoinStatistics(fa, fb);
  const double sigma =
      std::sqrt(BernoulliJoinVariance(s, rp, rq, params.rows).Total());
  // Prop 13 bound: a single draw lands within 3 sigma with probability
  // ~99.7%; the seeds above are fixed, so this is deterministic.
  EXPECT_LT(std::abs(estimate - truth), 3.0 * sigma)
      << "estimate=" << estimate << " truth=" << truth
      << " sigma=" << sigma;
}

// Eq 26 coverage: across 30 independent (stream, sample, sketch) seeds, the
// 95% CLT interval evaluated at the realized rate must cover the truth in
// at least 24 runs. The threshold is deliberately below the nominal 28.5 =
// 0.95 * 30: with 30 draws the 1st percentile of Binomial(30, 0.95) is 25,
// so 24 leaves margin for the CLT approximation itself while still
// detecting a mis-scaled variance (which collapses coverage entirely).
TEST(ShedControllerTest, Eq26IntervalCoversAcrossSeeds) {
  constexpr uint64_t kCount = 30000;
  constexpr size_t kDomain = 400;
  constexpr int kTrials = 30;
  constexpr double kP = 0.2;

  std::vector<uint64_t> all;
  ZipfSource mirror(kDomain, 1.0, kCount, 5);
  while (auto v = mirror.Next()) all.push_back(*v);
  const FrequencyVector fv = FrequencyVector::FromStream(all, kDomain);
  const double truth = fv.F2();
  const JoinStatistics s = ComputeJoinStatistics(fv, fv);

  int covered = 0;
  for (int t = 0; t < kTrials; ++t) {
    SketchParams params;
    params.rows = 128;
    params.seed = MixSeed(9000, static_cast<uint64_t>(t));
    ShardEngineOptions opts;
    opts.shed_p = kP;
    opts.seed = MixSeed(9500, static_cast<uint64_t>(t));
    ShardEngine<AgmsSketch> shed(AgmsSketch(params), opts);
    VectorSource source(all);
    shed.Run(source);

    const double rp = RealizedRate(shed);
    const double estimate = RealizedSelfJoinEstimate(
        shed.merged().EstimateSelfJoin(), rp, shed.total_kept());
    const ConfidenceInterval ci =
        RealizedSelfJoinInterval(estimate, s, rp, params.rows, 0.95);
    if (truth > ci.low && truth < ci.high) ++covered;
  }
  EXPECT_GE(covered, 24) << "95% Eq 26 intervals covered the truth in only "
                         << covered << "/" << kTrials << " runs";
}

}  // namespace
}  // namespace sketchsample
