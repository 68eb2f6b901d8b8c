// Tests for the streaming substrate: sources and the ingest path that
// pumps them (the sharded engine, src/stream/shard_engine.h).
#include <gtest/gtest.h>

#include <vector>

#include "src/sketch/fagms.h"
#include "src/stream/shard_engine.h"
#include "src/stream/source.h"

namespace sketchsample {
namespace {

TEST(VectorSourceTest, YieldsAllValuesThenEnds) {
  VectorSource source({1, 2, 3});
  EXPECT_EQ(source.Next(), 1u);
  EXPECT_EQ(source.Next(), 2u);
  EXPECT_EQ(source.Next(), 3u);
  EXPECT_FALSE(source.Next().has_value());
  EXPECT_FALSE(source.Next().has_value());  // stays exhausted
}

TEST(VectorSourceTest, EmptyVector) {
  VectorSource source({});
  EXPECT_FALSE(source.Next().has_value());
}

TEST(ZipfSourceTest, EmitsExactlyCountValues) {
  ZipfSource source(100, 1.0, 500, 42);
  size_t n = 0;
  while (source.Next()) ++n;
  EXPECT_EQ(n, 500u);
}

TEST(ZipfSourceTest, ValuesInDomain) {
  ZipfSource source(10, 2.0, 1000, 7);
  while (auto v = source.Next()) EXPECT_LT(*v, 10u);
}

TEST(PipelineTest, PumpsWholeSourceAndTimes) {
  VectorSource source(std::vector<uint64_t>(1000, 3));
  SketchParams params;
  params.rows = 1;
  params.buckets = 16;
  ShardEngine<FagmsSketch> engine(FagmsSketch(params), ShardEngineOptions{});
  const ShardEngineStats stats = engine.Run(source);
  EXPECT_EQ(stats.tuples, 1000u);
  EXPECT_EQ(stats.kept, 1000u);
  EXPECT_GE(stats.seconds, 0.0);
  EXPECT_GE(stats.TuplesPerSecond(), 0.0);
}

TEST(PipelineTest, ShedThenSketchEndToEnd) {
  // The §VI-A deployment: source -> shed(p) -> sketch. The corrected
  // estimate must land near the truth.
  constexpr size_t kCount = 20000;
  ZipfSource source(100, 1.0, kCount, 11);

  SketchParams params;
  params.rows = 1;
  params.buckets = 2048;
  params.seed = 13;
  ShardEngineOptions opts;
  opts.shed_p = 0.2;
  opts.seed = 17;
  ShardEngine<FagmsSketch> engine(FagmsSketch(params), opts);

  // Also track the exact frequencies to know the truth.
  std::vector<uint64_t> all;
  ZipfSource mirror(100, 1.0, kCount, 11);  // same seed -> same stream
  while (auto v = mirror.Next()) all.push_back(*v);
  const double truth = FrequencyVector::FromStream(all, 100).F2();

  engine.Run(source);
  const double raw = engine.merged().EstimateSelfJoin();
  const double corrected =
      raw / (0.2 * 0.2) -
      (1.0 - 0.2) / (0.2 * 0.2) * static_cast<double>(engine.total_kept());
  EXPECT_LT(std::abs(corrected - truth) / truth, 0.25);
}

}  // namespace
}  // namespace sketchsample
