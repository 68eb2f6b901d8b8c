// E9: sketch-update throughput — the speed-up claim of §VI-A / §VII-E.
//
// Measures the per-arriving-tuple cost of:
//   * full F-AGMS sketching (p = 1 baseline),
//   * coin-flip Bernoulli shedding in front of the sketch,
//   * geometric-skip shedding (Olken skips, ref [18]).
//
// The paper's claim: with skip-based sampling the work is proportional to
// the number of *kept* tuples, so throughput improves by ≈ 1/p (10x for a
// 10% sample, up to 1000x for p = 0.001). Coin-flip shedding still pays one
// RNG draw per tuple and saturates well below that.
//
// google-benchmark reports time per processed stream chunk; the per-tuple
// figure is time / kTuplesPerIteration.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/micro_main.h"
#include "src/core/sketch_over_sample.h"
#include "src/data/zipf.h"
#include "src/prng/cw.h"
#include "src/prng/hash.h"
#include "src/prng/simd/dispatch.h"
#include "src/service/http.h"
#include "src/service/router.h"
#include "src/service/service.h"
#include "src/sketch/agms.h"
#include "src/sketch/fagms.h"
#include "src/sketch/kll.h"
#include "src/sketch/serialize.h"
#include "src/stream/shard_engine.h"
#include "src/stream/source.h"
#include "src/util/aligned.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace sketchsample {
namespace {

constexpr size_t kTuplesPerIteration = 1 << 16;
constexpr size_t kDomain = 100000;

SketchParams Params() {
  SketchParams p;
  p.rows = 1;
  p.buckets = 5000;
  p.scheme = XiScheme::kEh3;
  p.seed = 42;
  return p;
}

const std::vector<uint64_t>& Stream() {
  static const std::vector<uint64_t> stream = [] {
    ZipfSampler sampler(kDomain, 1.0);
    Xoshiro256 rng(7);
    return sampler.Stream(kTuplesPerIteration, rng);
  }();
  return stream;
}

void BM_FullSketching(benchmark::State& state) {
  FagmsSketch sketch(Params());
  for (auto _ : state) {
    for (uint64_t v : Stream()) sketch.Update(v);
  }
  state.SetItemsProcessed(state.iterations() * kTuplesPerIteration);
}
BENCHMARK(BM_FullSketching);

// Scalar vs batched F-AGMS update kernels (the devirtualized SignBatch /
// BucketBatch block path). Same sketch state, same stream, bit-identical
// counters; the batch variant's win is the headline number for the kernel
// work. Arg 0 = EH3 (cheap signs: win mostly from dispatch/bucket batching),
// Arg 1 = CW4 (3 mulmods per sign: win dominated by pipelined mulmod chains).
XiScheme SchemeArg(int64_t arg) {
  return arg == 0 ? XiScheme::kEh3 : XiScheme::kCw4;
}

void BM_FagmsUpdateScalar(benchmark::State& state) {
  SketchParams p = Params();
  p.scheme = SchemeArg(state.range(0));
  FagmsSketch sketch(p);
  for (auto _ : state) {
    for (uint64_t v : Stream()) sketch.Update(v);
  }
  state.SetItemsProcessed(state.iterations() * kTuplesPerIteration);
  state.SetLabel(XiSchemeName(p.scheme));
}
BENCHMARK(BM_FagmsUpdateScalar)->Arg(0)->Arg(1);

void BM_FagmsUpdateBatch(benchmark::State& state) {
  SketchParams p = Params();
  p.scheme = SchemeArg(state.range(0));
  FagmsSketch sketch(p);
  for (auto _ : state) {
    sketch.UpdateBatch(Stream());
  }
  state.SetItemsProcessed(state.iterations() * kTuplesPerIteration);
  state.SetLabel(XiSchemeName(p.scheme));
}
BENCHMARK(BM_FagmsUpdateBatch)->Arg(0)->Arg(1);

// KLL quantile-sketch update at the service's quantile_k (200), on a
// hierarchy already grown past 2^20 items (13 levels), where the
// per-update capacity-budget check would cost the most if it scaled with
// the level count.
void BM_KllUpdate(benchmark::State& state) {
  static const KllSketch grown = [] {
    KllSketch kll(200, 17);
    for (uint64_t i = 0; i < (uint64_t{1} << 20); ++i) {
      kll.Update(MixSeed(3, i));
    }
    return kll;
  }();
  KllSketch sketch = grown;
  for (auto _ : state) {
    for (uint64_t v : Stream()) sketch.Update(v);
    benchmark::DoNotOptimize(sketch);
  }
  state.SetItemsProcessed(state.iterations() * kTuplesPerIteration);
}
BENCHMARK(BM_KllUpdate);

// One sealed service snapshot in perfbench's shape: F-AGMS 3x5000 CW4,
// distinct and subpop k = 1024, KLL k = 200, 2^20 Zipf tuples shed at
// p = 0.1 on two lanes.
const ServiceSnapshot& SealedSnapshot() {
  static const ServiceSnapshot sealed = [] {
    SketchParams sketch;
    sketch.rows = 3;
    sketch.buckets = 5000;
    sketch.scheme = XiScheme::kCw4;
    sketch.seed = 11;
    ShardEngineOptions options;
    options.shards = 2;
    options.shed_p = 0.1;
    options.seed = 12;
    options.distinct_k = 1024;
    options.quantile_k = 200;
    options.subpop_k = 1024;
    ZipfSampler sampler(kDomain, 1.0);
    Xoshiro256 rng(13);
    VectorSource source(sampler.Stream(size_t{1} << 20, rng));
    ShardEngine<FagmsSketch> engine(FagmsSketch(sketch), options);
    engine.Run(source);
    return engine.Snapshot();
  }();
  return sealed;
}

// The raw self-join scan of the sealed snapshot's sketch: all 15000
// counters, what every self-join, point and join answer used to pay.
void BM_FagmsEstimateSelfJoin(benchmark::State& state) {
  const FagmsSketch& sketch = SealedSnapshot().sketch;
  for (auto _ : state) benchmark::DoNotOptimize(sketch.EstimateSelfJoin());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FagmsEstimateSelfJoin);

// A whole /query/selfjoin answer on the sealed snapshot: estimator,
// interval, JSON body and HTTP response, as the service serves every read
// of an unchanged snapshot. The snapshot derives its self-join estimate
// and its formatted members once, so the answer costs a fraction of one
// scan.
void BM_SelfJoinAnswer(benchmark::State& state) {
  const ServiceSnapshot& snapshot = SealedSnapshot();
  QueryFreshness fresh;
  fresh.pushed = snapshot.position;
  for (auto _ : state) {
    HttpResponse response;
    response.body = SelfJoinAnswer(snapshot, std::nullopt, 0.95, fresh);
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SelfJoinAnswer);

// Every number of that answer, written with the answer writer's number
// formatter into one reused buffer: the formatting no writer can skip
// unless it formats some numbers once per snapshot.
void BM_SelfJoinNumbers(benchmark::State& state) {
  const ServiceSnapshot& snapshot = SealedSnapshot();
  QueryFreshness fresh;
  fresh.pushed = snapshot.position;
  std::vector<double> numbers;
  const auto collect = [&numbers](const JsonValue& value, auto& self) -> void {
    if (value.is_number()) numbers.push_back(value.AsNumber());
    if (!value.is_object()) return;
    for (const auto& member : value.AsObject()) self(member.second, self);
  };
  collect(SelfJoinResponseJson(snapshot, std::nullopt, 0.95, fresh), collect);
  std::string out;
  for (auto _ : state) {
    out.clear();
    JsonWriter w(out);
    for (const double number : numbers) w.Number(number);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["numbers"] = static_cast<double>(numbers.size());
}
BENCHMARK(BM_SelfJoinNumbers);

// One in-process request per endpoint against a service holding the sealed
// snapshot: Router::Dispatch (handler, snapshot pin, estimator, body) plus
// Serialize, the bytes a socket would send, as perfbench's ingest_p10
// reader times its sealed-snapshot answers. The service runs no ingest;
// the snapshot is published into its registry directly, and every point
// answers after the snapshot's view is derived.
void BM_InProcessAnswer(benchmark::State& state, const char* target) {
  static Router* const router = [] {
    SketchServiceOptions options;
    options.sketch = SealedSnapshot().sketch.params();
    FagmsSketch reference(options.sketch);
    reference.UpdateBatch(Stream());
    options.join_sketch = SerializeSketch(reference);
    static SketchService service(options);
    service.registry().Publish(
        std::make_unique<ServiceSnapshot>(SealedSnapshot()));
    static Router routes;
    service.Register(routes);
    return &routes;
  }();
  HttpRequestParser parser{HttpLimits{}};
  const std::string bytes =
      std::string("GET ") + target + " HTTP/1.1\r\nHost: bench\r\n\r\n";
  parser.Feed(bytes.data(), bytes.size());
  HttpRequest request;
  if (!parser.Next(&request)) {
    state.SkipWithError("unparsable request");
    return;
  }
  const RequestContext context;
  if (router->Dispatch(request, context).status != 200) {
    state.SkipWithError("endpoint did not answer 200");
    return;
  }
  for (auto _ : state) {
    const HttpResponse response = router->Dispatch(request, context);
    std::string wire = response.Serialize();
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_InProcessAnswer, selfjoin, "/query/selfjoin");
BENCHMARK_CAPTURE(BM_InProcessAnswer, join, "/query/join");
BENCHMARK_CAPTURE(BM_InProcessAnswer, point, "/query/point?key=7");
BENCHMARK_CAPTURE(BM_InProcessAnswer, distinct, "/query/distinct");
BENCHMARK_CAPTURE(BM_InProcessAnswer, quantile, "/query/quantile?q=0.5");
BENCHMARK_CAPTURE(BM_InProcessAnswer, subpop,
                  "/query/subpop?filter=mod:10-3");

class DroppingHook final : public ShardSnapshotHook<FagmsSketch> {
 public:
  void Publish(ShardEngineSnapshot<FagmsSketch>) override {}
};

// The fastest wall-clock rate of a hooked p = 1 ShardEngine::Run in
// perfbench's shape (2 lanes, F-AGMS 3x5000 CW4, distinct and subpop
// k = 1024, 2^21 Zipf tuples, a snapshot every 8192 tuples that the hook
// drops), keyed by quantile_k: 200 folds every snapshot's 8192 kept tuples
// into the KLL, 0 keeps no KLL. Measured once per process, in three
// interleaved rounds: interference from the host only slows a run, and
// interleaving keeps a slow stretch from landing on one side of the ratio
// the rule reads.
const std::map<size_t, double>& EngineSnapshotsP1Rates() {
  static const std::map<size_t, double> rates = [] {
    ZipfSampler sampler(kDomain, 1.0);
    Xoshiro256 rng(14);
    const std::vector<uint64_t> stream = sampler.Stream(size_t{1} << 21, rng);
    SketchParams sketch;
    sketch.rows = 3;
    sketch.buckets = 5000;
    sketch.scheme = XiScheme::kCw4;
    sketch.seed = 11;
    DroppingHook hook;
    std::map<size_t, double> best;
    for (int round = 0; round < 3; ++round) {
      for (const size_t quantile_k : {size_t{200}, size_t{0}}) {
        ShardEngineOptions options;
        options.shards = 2;
        options.shed_p = 1.0;
        options.seed = 12;
        options.distinct_k = 1024;
        options.quantile_k = quantile_k;
        options.subpop_k = 1024;
        VectorSource source(stream);
        ShardEngine<FagmsSketch> engine(FagmsSketch(sketch), options);
        engine.SetSnapshotHook(&hook, 8192);
        double& rate = best[quantile_k];
        rate = std::max(rate, engine.Run(source).TuplesPerSecond());
      }
    }
    return best;
  }();
  return rates;
}

// One point per quantile_k of the rates above. The first point's first
// iteration makes the whole measurement, so ns_per_op is no per-run time.
void BM_EngineSnapshotsP1(benchmark::State& state) {
  const size_t quantile_k = static_cast<size_t>(state.range(0));
  double rate = 0;
  for (auto _ : state) rate = EngineSnapshotsP1Rates().at(quantile_k);
  state.counters["items_per_second"] = rate;
}
BENCHMARK(BM_EngineSnapshotsP1)
    ->Arg(200)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// ISA-dispatched kernel series (src/prng/simd/). Registered dynamically so a
// report only contains points for levels the host (as capped by
// SKETCHSAMPLE_ISA) can actually run: committed baselines carry the levels
// every CI host reaches, and higher levels show up as extra, ungated points.

std::vector<simd::IsaLevel> CappedLevels() {
  std::vector<simd::IsaLevel> levels = {simd::IsaLevel::kScalar};
  if (simd::ActiveIsaLevel() >= simd::IsaLevel::kAvx2) {
    levels.push_back(simd::IsaLevel::kAvx2);
  }
  if (simd::ActiveIsaLevel() >= simd::IsaLevel::kAvx512) {
    levels.push_back(simd::IsaLevel::kAvx512);
  }
  return levels;
}

// The fastest rate of the fused CW4 kernel at every capped ISA level, all
// levels updating one sketch from one stream, measured in interleaved
// rounds: interference from the host only slows a round, and interleaving
// keeps a slow stretch from landing on one side of the <level>/scalar
// ratios the rules read (as in EngineSnapshotsP1Rates). Each round times
// every level for at least kIsaRoundSeconds, after one untimed pass per
// level that touches the counters. The kernels are bit-identical, so the
// levels share the sketch.
constexpr int kIsaRounds = 7;
constexpr double kIsaRoundSeconds = 0.005;

std::map<simd::IsaLevel, double> IsaRates(FagmsSketch sketch,
                                          const std::vector<uint64_t>& stream) {
  for (simd::IsaLevel level : CappedLevels()) {
    simd::ScopedIsaForTesting scoped(level);
    sketch.UpdateBatch(stream);
  }
  std::map<simd::IsaLevel, double> best;
  for (int round = 0; round < kIsaRounds; ++round) {
    for (simd::IsaLevel level : CappedLevels()) {
      simd::ScopedIsaForTesting scoped(level);
      Timer timer;
      size_t passes = 0;
      double seconds = 0;
      do {
        sketch.UpdateBatch(stream);
        ++passes;
        seconds = timer.ElapsedSeconds();
      } while (seconds < kIsaRoundSeconds);
      const double rate =
          static_cast<double>(passes * stream.size()) / seconds;
      best[level] = std::max(best[level], rate);
    }
  }
  return best;
}

// The fused CW4 F-AGMS row kernel at each ISA level — the headline series.
// The scalar point is the previous fused kernel (the scalar twin is that
// code moved verbatim), so the <level>/scalar ratio measures the vector
// speed-up host-independently; bench/rules/ gates it.
const std::map<simd::IsaLevel, double>& FusedIsaRates() {
  static const std::map<simd::IsaLevel, double> rates = [] {
    SketchParams p = Params();
    p.scheme = XiScheme::kCw4;
    return IsaRates(FagmsSketch(p), Stream());
  }();
  return rates;
}

// Roofline series: keys/s of the fused CW4 kernel as the counter working
// set sweeps from L1-resident to DRAM-resident. Buckets are uniform random
// so every cache level is actually exercised; rows = 1, so the working set
// is buckets * 8 bytes.
constexpr size_t kRooflineBuckets[] = {
    1 << 10,  // 8 KiB   — L1
    1 << 13,  // 64 KiB  — L2
    1 << 16,  // 512 KiB — L2/LLC
    1 << 19,  // 4 MiB   — LLC
    1 << 22,  // 32 MiB  — DRAM
};

const std::vector<uint64_t>& UniformStream() {
  static const std::vector<uint64_t> stream = [] {
    Xoshiro256 rng(321);
    std::vector<uint64_t> keys(kTuplesPerIteration);
    for (uint64_t& k : keys) k = rng();
    return keys;
  }();
  return stream;
}

const std::map<simd::IsaLevel, double>& RooflineRates(size_t buckets) {
  static std::map<size_t, std::map<simd::IsaLevel, double>> rates;
  const auto it = rates.find(buckets);
  if (it != rates.end()) return it->second;
  SketchParams p;
  p.rows = 1;
  p.buckets = buckets;
  p.scheme = XiScheme::kCw4;
  p.seed = 42;
  return rates[buckets] = IsaRates(FagmsSketch(p), UniformStream());
}

// One point per (series, level) of the rates above. The series' first
// point makes the whole measurement, so ns_per_op is no per-run time.
template <typename Rates>
void IsaPoint(benchmark::State& state, simd::IsaLevel level, Rates rates) {
  double rate = 0;
  for (auto _ : state) rate = rates().at(level);
  state.counters["items_per_second"] = rate;
  state.SetLabel(simd::IsaLevelName(level));
}

const bool kIsaBenchmarksRegistered = [] {
  for (simd::IsaLevel level : CappedLevels()) {
    const std::string isa = simd::IsaLevelName(level);
    ::benchmark::RegisterBenchmark(
        ("BM_FagmsFusedIsa/" + isa).c_str(),
        [level](benchmark::State& state) {
          IsaPoint(state, level, FusedIsaRates);
        });
    for (size_t buckets : kRooflineBuckets) {
      ::benchmark::RegisterBenchmark(
          ("BM_FagmsRoofline/" + isa + "/" + std::to_string(buckets)).c_str(),
          [level, buckets](benchmark::State& state) {
            IsaPoint(state, level, [buckets]() -> const auto& {
              return RooflineRates(buckets);
            });
            state.counters["ws_bytes"] =
                static_cast<double>(buckets * sizeof(double));
          });
    }
  }
  return true;
}();

// Layout trial backing the row-major decision (DESIGN.md §2): identical
// precomputed (bucket, signed-weight) update streams scattered into the two
// candidate counter layouts. Row-major keeps each row's updates inside one
// contiguous `buckets`-sized region (the layout every query walks
// sequentially); interleaving rows (counter[bucket * rows + row]) spreads a
// row across the whole array. Only the scatter is timed.
void LayoutTrialBody(benchmark::State& state, bool interleaved) {
  constexpr size_t kRows = 4;
  constexpr size_t kBuckets = 1 << 14;  // 512 KiB counters: past L1 and L2
  const std::vector<uint64_t>& keys = UniformStream();
  std::vector<uint64_t> buckets(kRows * keys.size());
  std::vector<double> weights(kRows * keys.size());
  {
    Cw4Xi xi(88);
    std::vector<int8_t> signs(keys.size());
    for (size_t r = 0; r < kRows; ++r) {
      PairwiseHash hash(77 + r, kBuckets);
      hash.BucketBatch(keys.data(), keys.size(), buckets.data() + r * keys.size());
      xi.SignBatch(keys.data(), keys.size(), signs.data());
      for (size_t i = 0; i < keys.size(); ++i) {
        weights[r * keys.size() + i] = static_cast<double>(signs[i]);
      }
    }
  }
  CounterVector counters(kRows * kBuckets, 0.0);
  for (auto _ : state) {
    for (size_t r = 0; r < kRows; ++r) {
      const uint64_t* b = buckets.data() + r * keys.size();
      const double* w = weights.data() + r * keys.size();
      if (interleaved) {
        double* base = counters.data() + r;
        for (size_t i = 0; i < keys.size(); ++i) {
          base[b[i] * kRows] += w[i];
        }
      } else {
        double* row = counters.data() + r * kBuckets;
        for (size_t i = 0; i < keys.size(); ++i) {
          row[b[i]] += w[i];
        }
      }
    }
  }
  benchmark::DoNotOptimize(counters.data());
  state.SetItemsProcessed(state.iterations() * kRows * keys.size());
  state.SetLabel(interleaved ? "interleaved" : "row_major");
}

void BM_FagmsLayoutRowMajor(benchmark::State& state) {
  LayoutTrialBody(state, /*interleaved=*/false);
}
BENCHMARK(BM_FagmsLayoutRowMajor);

void BM_FagmsLayoutInterleaved(benchmark::State& state) {
  LayoutTrialBody(state, /*interleaved=*/true);
}
BENCHMARK(BM_FagmsLayoutInterleaved);

void BM_CoinFlipShedding(benchmark::State& state) {
  const double p =
      1.0 / static_cast<double>(state.range(0));  // range = 1/p
  BernoulliSketchEstimator<FagmsSketch> est(p, Params(), 3);
  for (auto _ : state) {
    for (uint64_t v : Stream()) est.Update(v);
  }
  state.SetItemsProcessed(state.iterations() * kTuplesPerIteration);
  state.counters["p"] = p;
}
BENCHMARK(BM_CoinFlipShedding)->Arg(10)->Arg(100)->Arg(1000);

void BM_GeometricSkipShedding(benchmark::State& state) {
  const double p = 1.0 / static_cast<double>(state.range(0));
  BernoulliSketchEstimator<FagmsSketch> est(p, Params(), 5);
  for (auto _ : state) {
    est.ProcessStreamWithSkips(Stream());
  }
  state.SetItemsProcessed(state.iterations() * kTuplesPerIteration);
  state.counters["p"] = p;
}
BENCHMARK(BM_GeometricSkipShedding)->Arg(10)->Arg(100)->Arg(1000);

// AGMS update cost: the motivation for F-AGMS. Each update touches every
// row, so per-tuple cost grows linearly with rows; materialized sign tables
// (one bit per domain value per row) recover most of the CW4 evaluation
// cost on bounded domains.
void BM_AgmsUpdate(benchmark::State& state) {
  SketchParams p;
  p.rows = static_cast<size_t>(state.range(0));
  p.scheme = XiScheme::kCw4;
  p.seed = 9;
  if (state.range(1)) p.materialize_domain = kDomain;
  AgmsSketch sketch(p);
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(Stream()[i]);
    i = (i + 1) % Stream().size();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(state.range(1) ? "materialized" : "direct_cw4");
}
BENCHMARK(BM_AgmsUpdate)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({128, 0})
    ->Args({128, 1});

// The pure sampling front-end without any sketch, to separate sampling cost
// from sketching cost.
void BM_SkipSamplingOnly(benchmark::State& state) {
  const double p = 1.0 / static_cast<double>(state.range(0));
  GeometricSkipSampler sampler(p, 11);
  uint64_t sink = 0;
  for (auto _ : state) {
    size_t pos = sampler.NextSkip();
    while (pos < Stream().size()) {
      sink += Stream()[pos];
      pos += 1 + sampler.NextSkip();
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kTuplesPerIteration);
}
BENCHMARK(BM_SkipSamplingOnly)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace sketchsample

SKETCHSAMPLE_BENCHMARK_MAIN("bench_update_throughput");
