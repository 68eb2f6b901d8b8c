// Golden-file compatibility for the SKCP checkpoint wire format.
//
// One committed blob per flag combination the format has grown through:
//
//   v1_base.skcp             flags 0          (source position + sketch)
//   v1_shed_controller.skcp  bits 0|1         (shed + controller state)
//   v1_shards.skcp           bit 2            (shard section)
//   v1_shard_distinct.skcp   bits 2|3         (per-shard KMV distinct blobs)
//   v1_quantile_subpop.skcp  bits 2|3|4       (KLL + keyed-KMV subpop)
//
// Two bare KLL sketch blobs (SKSA framing, not checkpoints) pin the
// compaction schedule deep in the hierarchy, which the small KLL inside
// v1_quantile_subpop.skcp never reaches:
//
//   kll_k200_long.sksa       k=200 after 2^20 updates (13 levels)
//   kll_k200_merge.sksa      Merge of two such sketches
//
// The recipes above build every section by hand. Three more goldens pin
// what ShardEngine itself writes and answers, in the service benchmark's
// shape (F-AGMS 3x5000 CW4, 2 shards at p = 0.25, KMV and keyed-KMV
// k = 1024, KLL k = 200) over a fixed Zipf(1.0) stream:
//
//   v1_engine_cut.skcp       the engine's latest checkpoint, mid-stream:
//                            one shard entry holding the merged cut
//   engine_answers.txt       "<target> <body>" per answer of the sealed
//                            final state: selfjoin, 5 points, distinct,
//                            4 quantiles, 3 subpops, and a join
//   v1_engine.skcp           the same checkpoint as the engine wrote it
//                            while it kept one entry per shard (2 entries);
//                            no longer regenerated, kept as a resume input
//                            and for the directory round-trip
//
// A fourth pins every endpoint's body on small engine snapshots and edited
// copies of them, in the cases the engine golden never reaches:
//
//   service_answers.txt      "<case> <target> <body>" per answer: stale and
//                            degraded stamps, p = 0 and p = 1, exact KMV
//                            and subpop, an empty KLL, negative estimates,
//                            integers past 2^53, NaN as null, levels 0.5
//                            and 0.99
//
// Each golden is regenerated in-process from a deterministic recipe and
// must match the committed file byte for byte; deserializing the file and
// re-serializing the result must also reproduce the exact bytes. Together
// those two checks pin the wire format: any serializer change that would
// silently orphan deployed checkpoints fails here first, and the nightly
// forward-compat job replays the previous release's committed blobs
// against HEAD's deserializer using this same test binary.
//
// Regeneration (after an INTENTIONAL format change):
//   SKETCHSAMPLE_WRITE_GOLDEN=1 ./checkpoint_golden_test
// then commit the rewritten tests/golden/*.skcp alongside the format bump.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/zipf.h"
#include "src/service/http.h"
#include "src/service/service.h"
#include "src/sketch/fagms.h"
#include "src/sketch/kll.h"
#include "src/sketch/kmv.h"
#include "src/sketch/serialize.h"
#include "src/stream/checkpoint.h"
#include "src/stream/shard_engine.h"
#include "src/stream/source.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"

namespace sketchsample {
namespace {

#ifndef SKETCHSAMPLE_GOLDEN_DIR
#error "SKETCHSAMPLE_GOLDEN_DIR must point at tests/golden"
#endif

// The nightly forward-compat job points this binary at a golden directory
// extracted from the previous release instead of the working tree's.
std::string GoldenDir() {
  const char* override_dir = std::getenv("SKETCHSAMPLE_GOLDEN_DIR_OVERRIDE");
  if (override_dir != nullptr && override_dir[0] != '\0') {
    return override_dir;
  }
  return SKETCHSAMPLE_GOLDEN_DIR;
}

std::string GoldenPath(const std::string& name) {
  return GoldenDir() + "/" + name;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) ADD_FAILURE() << "cannot open golden file " << path;
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write golden file " << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// Deterministic golden recipes. Every value below is a pure function of
// fixed seeds — no clocks, no platform-dependent state — so regeneration on
// any machine reproduces the committed bytes exactly.
// ---------------------------------------------------------------------------

FagmsSketch MakeFagms(uint64_t salt, size_t updates) {
  SketchParams params;
  params.rows = 3;
  params.buckets = 16;
  params.scheme = XiScheme::kEh3;
  params.seed = 42;
  FagmsSketch sketch(params);
  for (uint64_t i = 0; i < updates; ++i) {
    sketch.Update(MixSeed(salt, i) % 97);
  }
  return sketch;
}

KmvSketch MakeKmv(uint64_t salt, size_t updates) {
  KmvSketch kmv(8, 7);
  for (uint64_t i = 0; i < updates; ++i) kmv.Update(MixSeed(salt, i) % 211);
  return kmv;
}

KeyedKmvSketch MakeKeyedKmv(uint64_t salt, size_t updates) {
  KeyedKmvSketch kmv(8, 11);
  for (uint64_t i = 0; i < updates; ++i) {
    kmv.Update(MixSeed(salt, i) % 211);
  }
  return kmv;
}

KllSketch MakeKll(uint64_t salt, size_t updates) {
  KllSketch kll(16, 13);
  for (uint64_t i = 0; i < updates; ++i) kll.Update(MixSeed(salt, i) % 1009);
  return kll;
}

PipelineCheckpoint BaseCheckpoint() {
  PipelineCheckpoint cp;
  cp.source_tuples = 12345;
  cp.sketch = SerializeSketch(MakeFagms(1, 200));
  return cp;
}

PipelineCheckpoint ShedControllerCheckpoint() {
  PipelineCheckpoint cp = BaseCheckpoint();
  cp.has_shed = true;
  cp.shed.p = 0.25;
  cp.shed.skip = 3;
  cp.shed.seen = 12345;
  cp.shed.forwarded = 3099;
  cp.shed.has_skipper = true;
  cp.shed.coin_rng = {11, 22, 33, 44};
  cp.shed.skip_rng = {55, 66, 77, 88};
  cp.has_controller = true;
  cp.controller.p = 0.25;
  cp.controller.backlog = 17.5;
  cp.controller.windows = 4;
  cp.controller.offered = 12345;
  cp.controller.kept = 3099;
  return cp;
}

PipelineCheckpoint ShardCheckpoint() {
  PipelineCheckpoint cp;
  cp.source_tuples = 8192;
  cp.has_shards = true;
  cp.shard_p = 0.5;
  for (uint64_t s = 0; s < 2; ++s) {
    ShardCheckpointState shard;
    shard.seen = 4096;
    shard.kept = 2048 + s;
    shard.sketch = SerializeSketch(MakeFagms(100 + s, 64));
    cp.shards.push_back(std::move(shard));
  }
  cp.sketch = SerializeSketch(MakeFagms(2, 128));
  return cp;
}

PipelineCheckpoint ShardDistinctCheckpoint() {
  PipelineCheckpoint cp = ShardCheckpoint();
  cp.has_shard_distinct = true;
  for (uint64_t s = 0; s < cp.shards.size(); ++s) {
    cp.shards[s].distinct = SerializeSketch(MakeKmv(200 + s, 96));
  }
  return cp;
}

PipelineCheckpoint QuantileSubpopCheckpoint() {
  PipelineCheckpoint cp = ShardDistinctCheckpoint();
  cp.has_quantile_subpop = true;
  cp.quantile = SerializeSketch(MakeKll(3, 300));
  cp.has_shard_subpop = true;
  for (uint64_t s = 0; s < cp.shards.size(); ++s) {
    cp.shards[s].subpop = SerializeSketch(MakeKeyedKmv(300 + s, 96));
  }
  return cp;
}

struct GoldenCase {
  const char* file;
  PipelineCheckpoint (*make)();
};

const GoldenCase kGoldens[] = {
    {"v1_base.skcp", BaseCheckpoint},
    {"v1_shed_controller.skcp", ShedControllerCheckpoint},
    {"v1_shards.skcp", ShardCheckpoint},
    {"v1_shard_distinct.skcp", ShardDistinctCheckpoint},
    {"v1_quantile_subpop.skcp", QuantileSubpopCheckpoint},
};

// Long-stream KLL: enough updates at the service's quantile_k that every
// compaction decision up to level 13 is exercised many times over.
constexpr size_t kLongKllUpdates = size_t{1} << 20;

KllSketch MakeLongKll(uint64_t salt) {
  KllSketch kll(200, 17);
  for (uint64_t i = 0; i < kLongKllUpdates; ++i) kll.Update(MixSeed(salt, i));
  return kll;
}

std::vector<uint8_t> LongKllBlob() {
  return SerializeSketch(MakeLongKll(5));
}

std::vector<uint8_t> MergedLongKllBlob() {
  KllSketch merged = MakeLongKll(5);
  merged.Merge(MakeLongKll(6));
  return SerializeSketch(merged);
}

struct SketchGoldenCase {
  const char* file;
  std::vector<uint8_t> (*make)();
};

const SketchGoldenCase kSketchGoldens[] = {
    {"kll_k200_long.sksa", LongKllBlob},
    {"kll_k200_merge.sksa", MergedLongKllBlob},
};

// Engine goldens: the stream, the engine configuration and the answer
// targets are fixed; the engine alone decides the bytes.
constexpr size_t kEngineTuples = 100000;
constexpr uint64_t kEngineCheckpointEvery = 40000;  // latest at 80000

std::vector<uint64_t> ZipfStream(uint64_t seed, size_t n) {
  const ZipfSampler zipf(100000, 1.0);
  Xoshiro256 rng(seed);
  return zipf.Stream(n, rng);
}

SketchParams EngineSketchParams() {
  SketchParams params;
  params.rows = 3;
  params.buckets = 5000;
  params.scheme = XiScheme::kCw4;
  params.seed = 0x5e7c;
  return params;
}

ShardEngineOptions EngineOptions(size_t shards) {
  ShardEngineOptions options;
  options.shards = shards;
  options.shed_p = 0.25;
  options.seed = 0x5eed;
  options.distinct_k = 1024;
  options.quantile_k = 200;
  options.subpop_k = 1024;
  return options;
}

std::vector<uint8_t> EngineCheckpointBlob() {
  LatestCheckpointSink sink;
  ShardEngineOptions options = EngineOptions(2);
  options.checkpoint_sink = &sink;
  options.checkpoint_every = kEngineCheckpointEvery;
  ShardEngine<FagmsSketch> engine(FagmsSketch(EngineSketchParams()), options);
  VectorSource source(ZipfStream(1, kEngineTuples));
  engine.Run(source);
  return sink.bytes();
}

// Every answer body of the engine's sealed state, one line per target.
std::vector<uint8_t> EngineAnswers(const ShardEngine<FagmsSketch>& engine) {
  const ServiceSnapshot snap{engine.merged(),     engine.distinct(),
                             engine.quantile(),   engine.subpop(),
                             engine.total_seen(), engine.total_kept(),
                             0,                   engine.p()};
  FagmsSketch reference(EngineSketchParams());
  reference.UpdateBatch(ZipfStream(2, 20000));
  const double level = 0.95;
  std::string out;
  const auto line = [&out](const std::string& target, const JsonValue& body) {
    out += target + " " + body.Dump() + "\n";
  };
  line("/query/selfjoin", SelfJoinResponseJson(snap, std::nullopt, level));
  for (uint64_t key : {0, 1, 7, 1000, 99999}) {
    line("/query/point?key=" + std::to_string(key),
         PointResponseJson(snap, key, std::nullopt, level));
  }
  line("/query/distinct", DistinctResponseJson(snap, level));
  for (const char* q : {"0.1", "0.5", "0.9", "0.99"}) {
    line(std::string("/query/quantile?q=") + q,
         QuantileResponseJson(snap, std::strtod(q, nullptr), level));
  }
  for (const char* filter : {"mod:10-3", "range:0-99", "mask:1-1"}) {
    line(std::string("/query/subpop?filter=") + filter,
         SubpopResponseJson(snap, ParseSubpopFilter(filter), level));
  }
  line("/query/join", JoinResponseJson(snap, reference, std::nullopt,
                                       std::nullopt, level));
  return std::vector<uint8_t>(out.begin(), out.end());
}

std::vector<uint8_t> UninterruptedEngineAnswers() {
  ShardEngine<FagmsSketch> engine(FagmsSketch(EngineSketchParams()),
                                  EngineOptions(2));
  VectorSource source(ZipfStream(1, kEngineTuples));
  engine.Run(source);
  return EngineAnswers(engine);
}

// The wider answers golden: every endpoint's body over snapshots and
// freshness contexts the engine golden never reaches — degraded and stale
// answers, p = 0 and p = 1, unsaturated KMV and keyed KMV (exact subpop),
// an empty KLL, negative estimates, integers at and past 2^53, a NaN rate
// that prints null, and levels 0.5 and 0.99. One "<case> <target> <body>"
// line per answer, the body as the service sends it (newline included).
SketchParams WideSketchParams() {
  SketchParams params;
  params.rows = 3;
  params.buckets = 256;
  params.scheme = XiScheme::kCw4;
  params.seed = 0xa5;
  return params;
}

ServiceSnapshot WideEngineSnapshot(double shed_p, size_t shards,
                                   size_t tuples, uint64_t domain,
                                   size_t companion_k) {
  ShardEngineOptions options;
  options.shards = shards;
  options.shed_p = shed_p;
  options.seed = 0xa6;
  options.chunk_tuples = 512;
  options.distinct_k = companion_k;
  options.quantile_k = 32;
  options.subpop_k = companion_k;
  ShardEngine<FagmsSketch> engine(FagmsSketch(WideSketchParams()), options);
  std::vector<uint64_t> stream = ZipfStream(3, tuples);
  for (uint64_t& v : stream) v %= domain;
  VectorSource source(std::move(stream));
  if (tuples > 0) engine.Run(source);
  return engine.Snapshot();
}

std::vector<uint8_t> WideServiceAnswers() {
  // Saturated KMV and keyed KMV, a compacted KLL, p = 0.5 on two shards.
  const ServiceSnapshot saturated = WideEngineSnapshot(0.5, 2, 20000, 3000, 64);
  // p = 1 over 40 keys: KMV and keyed KMV hold every key (exact answers).
  const ServiceSnapshot exact = WideEngineSnapshot(1.0, 1, 600, 40, 1024);
  // Nothing ingested: empty KLL, KMV and keyed KMV at position 0.
  const ServiceSnapshot empty = WideEngineSnapshot(0.5, 1, 0, 1, 64);
  // p = 0: every tuple shed, so realized p̂ = 0 and the estimates are 0.
  ServiceSnapshot shed_all = saturated;
  shed_all.p = 0.0;
  shed_all.kept = 0;
  // Counts past 2^53, which print in the %.17g form.
  ServiceSnapshot huge = saturated;
  huge.position = (uint64_t{1} << 60) + 7;
  huge.kept = (uint64_t{1} << 58) + 3;
  huge.sequence = (uint64_t{1} << 53) + 1;
  // A NaN rate at position 0 prints "p":null and "realized_p":null.
  ServiceSnapshot nan_rate = empty;
  nan_rate.p = std::numeric_limits<double>::quiet_NaN();

  FagmsSketch reference(WideSketchParams());
  std::vector<uint64_t> ref_stream = ZipfStream(4, 5000);
  for (uint64_t& v : ref_stream) v %= 3000;
  reference.UpdateBatch(ref_stream);
  const StreamMoments moments_f{20000, 4.1e7, 1.3e11, 4.7e14};
  const StreamMoments moments_g{5000, 2.6e6, 2.1e9, 1.9e12};

  std::string out;
  const auto line = [&out](const std::string& label, const JsonValue& body) {
    out += label + " " + JsonResponse(200, body).body;
  };
  const auto all = [&](const std::string& name, const ServiceSnapshot& snap,
                       double level, const QueryFreshness& fresh) {
    const std::string at = " level=" + std::to_string(level) + " ";
    line(name + at + "/query/selfjoin",
         SelfJoinResponseJson(snap, std::nullopt, level, fresh));
    line(name + at + "/query/join",
         JoinResponseJson(snap, reference, std::nullopt, std::nullopt, level,
                          fresh));
    line(name + at + "/query/point?key=7",
         PointResponseJson(snap, 7, std::nullopt, level, fresh));
    line(name + at + "/query/distinct",
         DistinctResponseJson(snap, level, fresh));
    line(name + at + "/query/quantile?q=0.5",
         QuantileResponseJson(snap, 0.5, level, fresh));
    line(name + at + "/query/subpop?filter=mod:10-3",
         SubpopResponseJson(snap, ParseSubpopFilter("mod:10-3"), level,
                            fresh));
  };
  const auto sealed = [](const ServiceSnapshot& snap) {
    QueryFreshness fresh;
    fresh.pushed = snap.position;
    return fresh;
  };

  for (const double level : {0.5, 0.95, 0.99}) {
    all("saturated", saturated, level, sealed(saturated));
  }
  const std::string at = "saturated level=0.950000 ";
  const QueryFreshness fresh = sealed(saturated);
  line(at + "/query/selfjoin moments=exact",
       SelfJoinResponseJson(saturated, moments_f, 0.95, fresh));
  line(at + "/query/join moments=exact",
       JoinResponseJson(saturated, reference, moments_f, moments_g, 0.95,
                        fresh));
  line(at + "/query/join moments=f-only",
       JoinResponseJson(saturated, reference, moments_f, std::nullopt, 0.95,
                        fresh));
  line(at + "/query/point?key=7 moments=exact",
       PointResponseJson(saturated, 7, moments_f, 0.95, fresh));
  // Absent keys (negative estimates among them) and keys at and past 2^53.
  for (const uint64_t key :
       {uint64_t{0}, uint64_t{2999}, uint64_t{3001}, uint64_t{123456789},
        (uint64_t{1} << 53) - 1, (uint64_t{1} << 53) + 1, UINT64_MAX}) {
    line(at + "/query/point?key=" + std::to_string(key),
         PointResponseJson(saturated, key, std::nullopt, 0.95, fresh));
  }
  for (const char* q : {"0", "0.001", "0.9", "1"}) {
    line(at + "/query/quantile?q=" + q,
         QuantileResponseJson(saturated, std::strtod(q, nullptr), 0.95,
                              fresh));
  }
  for (const char* filter :
       {"mod:1-0", "mod:2-1", "mod:3-2", "mod:12-5", "mod:999999937-17",
        "mod:9223372036854775808-3", "mod:18446744073709551615-0",
        "range:0-99", "range:0-18446744073709551615", "range:5000-6000",
        "mask:1-1", "mask:0-0", "mask:18446744073709551615-5"}) {
    line(at + "/query/subpop?filter=" + filter,
         SubpopResponseJson(saturated, ParseSubpopFilter(filter), 0.95,
                            fresh));
  }

  // Stale but within the lag bound; degraded by the lag, by admission
  // saturation and by a stalled ingest.
  QueryFreshness stale = fresh;
  stale.pushed = saturated.position + 1000;
  all("stale", saturated, 0.95, stale);
  QueryFreshness lagging = stale;
  lagging.freshness_lag = 100;
  all("degraded-lag", saturated, 0.95, lagging);
  QueryFreshness admission = fresh;
  admission.admission_saturated = true;
  all("degraded-admission", saturated, 0.95, admission);
  QueryFreshness stalled = fresh;
  stalled.ingest_stalled = true;
  all("degraded-stalled", saturated, 0.95, stalled);

  all("exact", exact, 0.95, sealed(exact));
  line("exact level=0.950000 /query/subpop?filter=range:0-9",
       SubpopResponseJson(exact, ParseSubpopFilter("range:0-9"), 0.95,
                          sealed(exact)));
  all("empty", empty, 0.95, sealed(empty));
  all("shed-all", shed_all, 0.95, sealed(shed_all));
  all("huge", huge, 0.99, sealed(huge));
  all("nan-rate", nan_rate, 0.95, sealed(nan_rate));
  return std::vector<uint8_t>(out.begin(), out.end());
}

const SketchGoldenCase kEngineGoldens[] = {
    {"v1_engine_cut.skcp", EngineCheckpointBlob},
    {"engine_answers.txt", UninterruptedEngineAnswers},
    {"service_answers.txt", WideServiceAnswers},
};

bool WriteGoldenMode() {
  const char* env = std::getenv("SKETCHSAMPLE_WRITE_GOLDEN");
  return env != nullptr && env[0] == '1';
}

TEST(CheckpointGoldenTest, RegenerateWhenRequested) {
  if (!WriteGoldenMode()) GTEST_SKIP() << "SKETCHSAMPLE_WRITE_GOLDEN not set";
  for (const GoldenCase& golden : kGoldens) {
    WriteFileBytes(GoldenPath(golden.file),
                   SerializeCheckpoint(golden.make()));
  }
  for (const SketchGoldenCase& golden : kSketchGoldens) {
    WriteFileBytes(GoldenPath(golden.file), golden.make());
  }
  for (const SketchGoldenCase& golden : kEngineGoldens) {
    WriteFileBytes(GoldenPath(golden.file), golden.make());
  }
}

// The committed blob is exactly what today's serializer produces from the
// deterministic recipe — the write path has not drifted.
TEST(CheckpointGoldenTest, CommittedBytesMatchRegeneration) {
  if (WriteGoldenMode()) GTEST_SKIP();
  for (const GoldenCase& golden : kGoldens) {
    SCOPED_TRACE(golden.file);
    const std::vector<uint8_t> committed = ReadFileBytes(GoldenPath(golden.file));
    const std::vector<uint8_t> regenerated =
        SerializeCheckpoint(golden.make());
    EXPECT_EQ(committed, regenerated);
  }
}

// Deserialize → re-serialize is the identity on every golden: the read path
// loses nothing and the write path adds nothing.
TEST(CheckpointGoldenTest, RoundTripIsByteIdentity) {
  for (const GoldenCase& golden : kGoldens) {
    SCOPED_TRACE(golden.file);
    const std::vector<uint8_t> committed = ReadFileBytes(GoldenPath(golden.file));
    ASSERT_FALSE(committed.empty());
    const PipelineCheckpoint cp = DeserializeCheckpoint(committed);
    EXPECT_EQ(SerializeCheckpoint(cp), committed);
  }
}

// Forward compatibility: every .skcp blob present in the golden directory
// round-trips through HEAD's codec, whatever recipe list wrote it. Unlike
// the recipe-driven tests above, this scans the directory, so the nightly
// forward-compat job can point SKETCHSAMPLE_GOLDEN_DIR_OVERRIDE at the
// previous release's tests/golden/ — which may lack blobs for flag combos
// added since — and still exercise every blob that release shipped.
TEST(CheckpointGoldenTest, EveryBlobInDirectoryRoundTrips) {
  size_t blobs = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(GoldenDir())) {
    if (entry.path().extension() != ".skcp") continue;
    SCOPED_TRACE(entry.path().filename().string());
    const std::vector<uint8_t> committed =
        ReadFileBytes(entry.path().string());
    ASSERT_FALSE(committed.empty());
    const PipelineCheckpoint cp = DeserializeCheckpoint(committed);
    EXPECT_EQ(SerializeCheckpoint(cp), committed);
    ++blobs;
  }
  EXPECT_GT(blobs, 0u) << "golden directory " << GoldenDir()
                       << " holds no .skcp blobs";
}

// The embedded sketch blobs in the newest golden load through their typed
// deserializers — the golden pins semantic compatibility, not just framing.
TEST(CheckpointGoldenTest, EmbeddedBlobsLoadThroughTypedDeserializers) {
  const PipelineCheckpoint cp =
      DeserializeCheckpoint(ReadFileBytes(GoldenPath("v1_quantile_subpop.skcp")));
  ASSERT_TRUE(cp.has_quantile_subpop);
  ASSERT_TRUE(cp.has_shard_subpop);
  ASSERT_EQ(cp.shards.size(), 2u);

  const KllSketch kll = DeserializeKll(cp.quantile);
  const KllSketch expected_kll = MakeKll(3, 300);
  EXPECT_EQ(kll.n(), expected_kll.n());
  EXPECT_EQ(kll.compactions(), expected_kll.compactions());
  EXPECT_EQ(kll.EstimateQuantile(0.5), expected_kll.EstimateQuantile(0.5));

  for (uint64_t s = 0; s < cp.shards.size(); ++s) {
    const FagmsSketch partial = DeserializeFagms(cp.shards[s].sketch);
    EXPECT_TRUE(partial.CompatibleWith(MakeFagms(0, 0)));
    const KmvSketch distinct = DeserializeKmv(cp.shards[s].distinct);
    EXPECT_EQ(distinct.retained(), MakeKmv(200 + s, 96).retained());
    const KeyedKmvSketch subpop = DeserializeKmvKeyed(cp.shards[s].subpop);
    const KeyedKmvSketch expected = MakeKeyedKmv(300 + s, 96);
    ASSERT_EQ(subpop.retained(), expected.retained());
    const auto got_entries = subpop.Entries();
    const auto want_entries = expected.Entries();
    for (size_t i = 0; i < got_entries.size(); ++i) {
      EXPECT_EQ(got_entries[i].hash, want_entries[i].hash);
      EXPECT_EQ(got_entries[i].key, want_entries[i].key);
      EXPECT_EQ(got_entries[i].weight, want_entries[i].weight);
    }
  }
}

// The long-stream KLL recipes still produce the committed bytes: any change
// to a compaction trigger, the level capacities or the survivor coin at any
// depth shows up here.
TEST(KllGoldenTest, LongStreamBlobsMatchRegeneration) {
  if (WriteGoldenMode()) GTEST_SKIP();
  for (const SketchGoldenCase& golden : kSketchGoldens) {
    SCOPED_TRACE(golden.file);
    EXPECT_EQ(ReadFileBytes(GoldenPath(golden.file)), golden.make());
  }
}

TEST(KllGoldenTest, LongStreamBlobsRoundTripAndReachDeepLevels) {
  for (const SketchGoldenCase& golden : kSketchGoldens) {
    SCOPED_TRACE(golden.file);
    const std::vector<uint8_t> committed =
        ReadFileBytes(GoldenPath(golden.file));
    ASSERT_FALSE(committed.empty());
    const KllSketch kll = DeserializeKll(committed);
    EXPECT_GE(kll.levels().size(), 13u);
    EXPECT_GE(kll.n(), kLongKllUpdates);
    EXPECT_EQ(SerializeSketch(kll), committed);
  }
}

// The engine still writes the committed checkpoint and answers the
// committed bodies: its checkpoint layout and every answer byte are pinned
// across changes to the engine and the service, not just across two runs
// of one build.
TEST(EngineGoldenTest, CommittedBytesMatchEngineOutput) {
  if (WriteGoldenMode()) GTEST_SKIP();
  for (const SketchGoldenCase& golden : kEngineGoldens) {
    SCOPED_TRACE(golden.file);
    EXPECT_EQ(ReadFileBytes(GoldenPath(golden.file)), golden.make());
  }
}

// Every committed answer body is what the tree parser reads back and Dump
// prints again: the bodies are compact JSON in Dump's own number and
// string forms, whoever wrote them.
TEST(EngineGoldenTest, AnswerBodiesRoundTripThroughParse) {
  for (const char* file : {"engine_answers.txt", "service_answers.txt"}) {
    SCOPED_TRACE(file);
    const std::vector<uint8_t> bytes = ReadFileBytes(GoldenPath(file));
    const std::string text(bytes.begin(), bytes.end());
    size_t lines = 0;
    for (size_t start = 0; start < text.size(); ++lines) {
      const size_t end = text.find('\n', start);
      ASSERT_NE(end, std::string::npos) << "unterminated last line";
      const size_t brace = text.find(" {", start);
      ASSERT_LT(brace, end) << text.substr(start, end - start);
      const std::string body = text.substr(brace + 1, end - brace);
      const std::optional<JsonValue> parsed = JsonValue::Parse(body);
      ASSERT_TRUE(parsed.has_value()) << body;
      EXPECT_EQ(parsed->Dump() + "\n", body);
      start = end + 1;
    }
    EXPECT_GT(lines, 10u);
  }
}

// Resuming from either committed mid-stream checkpoint — the merged cut or
// the older one-entry-per-shard form — at a shard count other than the
// writer's, reproduces the uninterrupted run's committed answers.
TEST(EngineGoldenTest, ResumeFromCommittedCheckpointReproducesAnswers) {
  const std::vector<uint8_t> answers =
      ReadFileBytes(GoldenPath("engine_answers.txt"));
  for (const char* file : {"v1_engine_cut.skcp", "v1_engine.skcp"}) {
    SCOPED_TRACE(file);
    const PipelineCheckpoint cp =
        DeserializeCheckpoint(ReadFileBytes(GoldenPath(file)));
    ASSERT_EQ(cp.source_tuples, 2 * kEngineCheckpointEvery);
    for (const size_t shards : {1u, 3u}) {
      SCOPED_TRACE(shards);
      ShardEngine<FagmsSketch> engine(FagmsSketch(EngineSketchParams()),
                                      EngineOptions(shards));
      VectorSource source(ZipfStream(1, kEngineTuples));
      engine.Restore(cp, source);
      engine.Run(source);
      EXPECT_EQ(EngineAnswers(engine), answers);
    }
  }
}

// ---------------------------------------------------------------------------
// Hostile variants of the committed blobs. Every mutation must surface as a
// typed CheckpointError (or std::invalid_argument from a typed sketch
// deserializer) — never a crash, never a silent partial load.
// ---------------------------------------------------------------------------

void RefitCrc(std::vector<uint8_t>& bytes) {
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - sizeof(uint32_t));
  std::memcpy(bytes.data() + bytes.size() - sizeof(uint32_t), &crc,
              sizeof(crc));
}

TEST(CheckpointGoldenTest, TruncatedGoldensRejected) {
  const std::vector<uint8_t> committed =
      ReadFileBytes(GoldenPath("v1_quantile_subpop.skcp"));
  // Every prefix must fail: the CRC footer catches most, the length checks
  // catch the rest. Step 7 keeps the loop cheap while hitting every
  // section boundary modulo alignment.
  for (size_t len = 0; len < committed.size(); len += 7) {
    std::vector<uint8_t> truncated(committed.begin(),
                                   committed.begin() + len);
    EXPECT_THROW(DeserializeCheckpoint(truncated), CheckpointError)
        << "prefix length " << len;
  }
}

TEST(CheckpointGoldenTest, FlagForgeryWithoutShardSectionRejected) {
  // Bit 4 requires bit 2; forging it onto the shardless golden must fail
  // before any quantile state is read.
  std::vector<uint8_t> bytes = ReadFileBytes(GoldenPath("v1_base.skcp"));
  bytes[16] |= 0x10;
  RefitCrc(bytes);
  EXPECT_THROW(DeserializeCheckpoint(bytes), CheckpointError);
}

// Inner-format (SKSA) footer: FNV-1a over every preceding byte, refitted
// so a mutation tests the structural validation behind the checksum.
void RefitSketchChecksum(std::vector<uint8_t>& blob) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i + sizeof(uint64_t) < blob.size(); ++i) {
    hash ^= blob[i];
    hash *= 0x100000001b3ULL;
  }
  std::memcpy(blob.data() + blob.size() - sizeof(uint64_t), &hash,
              sizeof(hash));
}

TEST(CheckpointGoldenTest, CorruptedEmbeddedKllBlobRejectedByTypedLoad) {
  // Framing stays valid (checksums refitted), but the KLL payload no longer
  // conserves weight — the typed deserializer must throw when the engine
  // restores it.
  PipelineCheckpoint cp =
      DeserializeCheckpoint(ReadFileBytes(GoldenPath("v1_quantile_subpop.skcp")));
  // SKSA header: magic(4) version(4) kind(4) rows(8) buckets(8) scheme(4)
  // seed(8) counter_count(8) = 48 bytes; the KLL payload leads with n.
  const size_t n_offset = 48;
  ASSERT_GE(cp.quantile.size(), n_offset + 2 * sizeof(uint64_t));
  uint64_t n = 0;
  std::memcpy(&n, cp.quantile.data() + n_offset, sizeof(n));
  n *= 2;  // breaks weight conservation without touching level structure
  std::memcpy(cp.quantile.data() + n_offset, &n, sizeof(n));
  RefitSketchChecksum(cp.quantile);
  EXPECT_THROW(DeserializeKll(cp.quantile), std::invalid_argument);
}

TEST(CheckpointGoldenTest, SubpopCountMismatchRejected) {
  // Forge the subpop blob count on the newest golden: the u64 sits
  // directly after the embedded KLL blob, located by scanning for those
  // exact bytes. A count that disagrees with the shard count must be
  // rejected before any blob is attributed to a shard.
  std::vector<uint8_t> bytes =
      ReadFileBytes(GoldenPath("v1_quantile_subpop.skcp"));
  const std::vector<uint8_t> kll_blob = SerializeSketch(MakeKll(3, 300));
  auto it = std::search(bytes.begin(), bytes.end(), kll_blob.begin(),
                        kll_blob.end());
  ASSERT_NE(it, bytes.end());
  const size_t count_offset =
      static_cast<size_t>(it - bytes.begin()) + kll_blob.size();
  ASSERT_LE(count_offset + sizeof(uint64_t), bytes.size());
  const uint64_t forged = 5;
  std::memcpy(bytes.data() + count_offset, &forged, sizeof(forged));
  RefitCrc(bytes);
  EXPECT_THROW(DeserializeCheckpoint(bytes), CheckpointError);
}

}  // namespace
}  // namespace sketchsample
