// Tests for the batched update kernels: SignBatch/BucketBatch parity with
// their scalar counterparts, bit-exactness of UpdateBatch on every sketch
// family, the chunked stream layer, and the memory/metrics accounting that
// rides along with the batch paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/prng/hash.h"
#include "src/prng/materialized.h"
#include "src/prng/xi.h"
#include "src/sketch/agms.h"
#include "src/sketch/countmin.h"
#include "src/sketch/fagms.h"
#include "src/sketch/fastcount.h"
#include "src/sketch/sketch.h"
#include "src/stream/shard_engine.h"
#include "src/stream/source.h"
#include "src/util/metrics.h"

namespace sketchsample {
namespace {

constexpr XiScheme kAllSchemes[] = {
    XiScheme::kBch3, XiScheme::kEh3,  XiScheme::kBch5,
    XiScheme::kCw2,  XiScheme::kCw4,  XiScheme::kTabulation,
};

// A key set that exercises partial final blocks (5000 = 19 * 256 + 136) and,
// when materialization is capped below the domain, the out-of-table
// fallback.
std::vector<uint64_t> TestKeys(size_t count, size_t domain, uint64_t seed) {
  ZipfSource source(domain, 1.0, count, seed);
  std::vector<uint64_t> keys;
  keys.reserve(count);
  while (auto v = source.Next()) keys.push_back(*v);
  return keys;
}

// ---------------------------------------------------------------------------
// prng layer: batch kernels agree with scalar evaluation.

TEST(SignBatchTest, MatchesScalarForAllSchemes) {
  std::vector<uint64_t> keys = TestKeys(1000, 1 << 20, 7);
  keys.push_back(0);
  keys.push_back(~0ull);  // out of Mersenne range: exercises Mod61 folding
  keys.push_back((1ull << 61) - 1);
  std::vector<int8_t> out(keys.size());
  for (XiScheme scheme : kAllSchemes) {
    const auto xi = MakeXiFamily(scheme, 12345);
    xi->SignBatch(keys.data(), keys.size(), out.data());
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(static_cast<int>(out[i]), xi->Sign(keys[i]))
          << XiSchemeName(scheme) << " key " << keys[i];
    }
  }
}

TEST(SignBatchTest, MaterializedMatchesScalarIncludingFallback) {
  constexpr size_t kDomain = 512;
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 2 * kDomain; ++k) keys.push_back(k);  // half out
  std::vector<int8_t> out(keys.size());
  for (XiScheme scheme : kAllSchemes) {
    const auto xi = MakeMaterializedXiFamily(scheme, 99, kDomain);
    const auto base = MakeXiFamily(scheme, 99);
    xi->SignBatch(keys.data(), keys.size(), out.data());
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(static_cast<int>(out[i]), base->Sign(keys[i]))
          << XiSchemeName(scheme) << " key " << keys[i];
    }
  }
}

TEST(BucketBatchTest, MatchesScalarBucket) {
  const std::vector<uint64_t> keys = TestKeys(1000, 1 << 20, 3);
  std::vector<uint64_t> out(keys.size());
  for (uint64_t buckets : {1ull, 2ull, 5000ull, 65537ull}) {
    const PairwiseHash hash(4242, buckets);
    hash.BucketBatch(keys.data(), keys.size(), out.data());
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(out[i], hash.Bucket(keys[i])) << "key " << keys[i];
    }
  }
}

// ---------------------------------------------------------------------------
// sketch layer: UpdateBatch is bit-identical to scalar Update.

template <typename SketchT>
void ExpectBatchMatchesScalar(const SketchParams& params,
                              const std::vector<uint64_t>& keys,
                              double weight) {
  SketchT scalar(params);
  SketchT batch(params);
  for (uint64_t key : keys) scalar.Update(key, weight);
  batch.UpdateBatch(keys.data(), keys.size(), weight);
  EXPECT_EQ(scalar.counters(), batch.counters());
}

TEST(UpdateBatchTest, BitExactAcrossSchemesAndWeights) {
  const std::vector<uint64_t> keys = TestKeys(5000, 6000, 17);
  for (XiScheme scheme : kAllSchemes) {
    for (size_t materialize : {size_t{0}, size_t{4096}}) {
      for (double weight : {1.0, -3.0, 0.5}) {
        SketchParams params;
        params.rows = 3;
        params.buckets = 64;
        params.scheme = scheme;
        params.seed = 23;
        params.materialize_domain = materialize;  // < domain: fallback keys
        ExpectBatchMatchesScalar<AgmsSketch>(params, keys, weight);
        ExpectBatchMatchesScalar<FagmsSketch>(params, keys, weight);
      }
    }
  }
}

// The fused CW4 kernel special-cases a single-bucket row and the benchmark
// configuration (5000 buckets) takes the magic-modulo scatter path; pin both
// to scalar bit-exactness explicitly.
TEST(UpdateBatchTest, BitExactForFusedCw4EdgeBucketCounts) {
  const std::vector<uint64_t> keys = TestKeys(5000, 100000, 41);
  for (uint64_t buckets : {1ull, 2ull, 5000ull}) {
    SketchParams params;
    params.rows = 2;
    params.buckets = buckets;
    params.scheme = XiScheme::kCw4;
    params.seed = 57;
    ExpectBatchMatchesScalar<FagmsSketch>(params, keys, 1.0);
    ExpectBatchMatchesScalar<FagmsSketch>(params, keys, -2.5);
  }
}

TEST(UpdateBatchTest, BitExactForHashOnlySketches) {
  const std::vector<uint64_t> keys = TestKeys(5000, 6000, 29);
  SketchParams params;
  params.rows = 3;
  params.buckets = 64;
  params.seed = 31;
  for (double weight : {1.0, -3.0, 0.5}) {
    ExpectBatchMatchesScalar<CountMinSketch>(params, keys, weight);
    ExpectBatchMatchesScalar<FastCountSketch>(params, keys, weight);
  }
}

TEST(UpdateBatchTest, EmptyBatchIsANoop) {
  SketchParams params;
  params.rows = 2;
  params.buckets = 16;
  FagmsSketch sketch(params);
  const auto before = sketch.counters();
  sketch.UpdateBatch(nullptr, 0);
  EXPECT_EQ(sketch.counters(), before);
}

TEST(UpdateBatchTest, MixedScalarAndBatchUpdatesCompose) {
  const std::vector<uint64_t> keys = TestKeys(700, 2000, 41);
  SketchParams params;
  params.rows = 2;
  params.buckets = 32;
  params.scheme = XiScheme::kCw4;
  FagmsSketch scalar(params);
  FagmsSketch mixed(params);
  for (uint64_t key : keys) scalar.Update(key);
  mixed.Update(keys[0]);
  mixed.UpdateBatch(keys.data() + 1, keys.size() - 2);
  mixed.Update(keys.back());
  EXPECT_EQ(scalar.counters(), mixed.counters());
}

// ---------------------------------------------------------------------------
// stream layer: chunked sources and the chunked engine pump.

TEST(SourceTest, ZipfNextChunkMatchesScalarNext) {
  ZipfSource scalar(1000, 1.0, 5000, 61);
  ZipfSource chunked(1000, 1.0, 5000, 61);  // same seed -> same RNG stream
  std::vector<uint64_t> expect;
  while (auto v = scalar.Next()) expect.push_back(*v);
  std::vector<uint64_t> got;
  uint64_t buf[64];
  while (size_t n = chunked.NextChunk(buf, 64)) {
    got.insert(got.end(), buf, buf + n);
  }
  EXPECT_EQ(got, expect);
}

TEST(SourceTest, VectorNextChunkHandlesPartialTail) {
  VectorSource source(TestKeys(130, 100, 67));
  uint64_t buf[64];
  EXPECT_EQ(source.NextChunk(buf, 64), 64u);
  EXPECT_EQ(source.NextChunk(buf, 64), 64u);
  EXPECT_EQ(source.NextChunk(buf, 64), 2u);
  EXPECT_EQ(source.NextChunk(buf, 64), 0u);
  EXPECT_FALSE(source.Next().has_value());
}

TEST(PipelineTest, ChunkedPumpCountsChunksAndMatchesScalarSketch) {
  SketchParams params;
  params.rows = 2;
  params.buckets = 256;
  params.seed = 89;
  const std::vector<uint64_t> stream = TestKeys(2500, 1000, 97);

  FagmsSketch expect(params);
  for (uint64_t key : stream) expect.Update(key);

  ShardEngine<FagmsSketch> engine(FagmsSketch(params), ShardEngineOptions{});
  VectorSource source(stream);
  const ShardEngineStats stats = engine.Run(source);
  EXPECT_EQ(stats.tuples, 2500u);
  EXPECT_EQ(stats.chunks, 3u);  // ceil(2500 / 1024)
  EXPECT_EQ(stats.kept, 2500u);
  EXPECT_EQ(engine.merged().counters(), expect.counters());
}

// ---------------------------------------------------------------------------
// accounting: MemoryBytes covers hash/ξ state; metrics count batch sizes.

TEST(MemoryBytesTest, IncludesHashAndXiState) {
  SketchParams params;
  params.rows = 4;
  params.buckets = 64;
  params.scheme = XiScheme::kCw4;
  const FagmsSketch fagms(params);
  EXPECT_GT(fagms.MemoryBytes(),
            params.rows * params.buckets * sizeof(double));
  const AgmsSketch agms(params);
  EXPECT_GT(agms.MemoryBytes(), params.rows * sizeof(double));
  const CountMinSketch cm(params);
  EXPECT_GT(cm.MemoryBytes(), params.rows * params.buckets * sizeof(double));
  const FastCountSketch fc(params);
  EXPECT_GT(fc.MemoryBytes(), params.rows * params.buckets * sizeof(double));
}

TEST(MemoryBytesTest, CountsMaterializedSignTables) {
  SketchParams plain;
  plain.rows = 2;
  plain.buckets = 32;
  SketchParams materialized = plain;
  materialized.materialize_domain = 4096;
  const FagmsSketch small(plain);
  const FagmsSketch big(materialized);
  // Each row's table holds 4096 sign bits = 512 bytes.
  EXPECT_GE(big.MemoryBytes(), small.MemoryBytes() + 2 * (4096 / 8));
}

TEST(MetricsTest, BatchUpdatesCountTuplesNotCalls) {
  metrics::SetEnabled(true);
  metrics::Registry::Global().ResetAll();
  SketchParams params;
  params.rows = 1;
  params.buckets = 16;
  FagmsSketch sketch(params);
  const std::vector<uint64_t> keys = TestKeys(1000, 100, 101);
  sketch.UpdateBatch(keys.data(), keys.size());
  sketch.Update(7);
  FagmsSketch other(params);
  sketch.Merge(other);
  auto& registry = metrics::Registry::Global();
  EXPECT_EQ(registry.GetCounter("sketch.fagms.updates").Get(), 1001u);
  EXPECT_EQ(registry.GetCounter("sketch.fagms.batch_updates").Get(), 1u);
  EXPECT_EQ(registry.GetCounter("sketch.fagms.merges").Get(), 1u);
  metrics::Registry::Global().ResetAll();
  metrics::SetEnabled(false);
}

}  // namespace
}  // namespace sketchsample
