// In-process end-to-end tests for the query-serving sketch service
// (src/service/service.h): router dispatch, ingest parsing, bit-exact
// online-vs-offline responses through the shared builders, error paths,
// kill-and-resume, and queries racing live ingest (the racing test runs
// under the `tsan` ctest label).
//
// No sockets here — requests go straight through Router::Dispatch, which is
// the exact code path the HTTP server drives; the socket layer itself is
// covered by tests/http_test.cc and the service-smoke CI job.

// lint:allow-file(raw-atomic-confined): stop flags coordinating real
// query/ingest threads in the racing end-to-end test; harness-side only.
#include "src/service/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/service/router.h"
#include "src/sketch/serialize.h"
#include "src/stream/checkpoint.h"
#include "src/util/rng.h"

namespace sketchsample {
namespace {

constexpr uint64_t kSketchSeed = 33;
constexpr uint64_t kRootSeed = 42;

std::vector<uint64_t> MakeStream(size_t n, uint64_t seed, uint64_t domain) {
  Xoshiro256 rng(seed);
  std::vector<uint64_t> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(rng() % domain);
  return out;
}

SketchServiceOptions SmallOptions() {
  SketchServiceOptions options;
  options.sketch.rows = 3;
  options.sketch.buckets = 128;
  options.sketch.seed = kSketchSeed;
  options.engine.shards = 2;
  options.engine.shed_p = 0.5;
  options.engine.seed = kRootSeed;
  options.engine.chunk_tuples = 512;
  options.engine.distinct_k = 64;
  options.engine.quantile_k = 64;
  options.engine.subpop_k = 32;
  options.snapshot_every = 2048;
  options.max_readers = 8;
  return options;
}

HttpRequest Get(const std::string& path,
                std::vector<std::pair<std::string, std::string>> query = {}) {
  HttpRequest request;
  request.method = "GET";
  request.path = path;
  request.query = std::move(query);
  return request;
}

HttpRequest Post(const std::string& path, std::string body = {}) {
  HttpRequest request;
  request.method = "POST";
  request.path = path;
  request.body = std::move(body);
  return request;
}

// Runs the whole lifecycle: push `stream` in `batch`-sized chunks, close,
// wait for the ingest thread to drain.
void RunToCompletion(SketchService& service, const std::vector<uint64_t>& stream,
                     size_t batch) {
  service.Start();
  for (size_t i = 0; i < stream.size(); i += batch) {
    const size_t n = std::min(batch, stream.size() - i);
    ASSERT_EQ(service.Push(stream.data() + i, n), n);
  }
  service.CloseIngest();
  while (!service.ingest_done()) {
    std::this_thread::yield();
  }
  ASSERT_EQ(service.ingest_error(), "");
}

// The query-endpoint bodies as served, for byte comparison.
struct QueryBodies {
  std::string selfjoin;
  std::string point;
  std::string distinct;
  std::string quantile;
  std::string subpop;
  std::string stats_snapshot;
};

QueryBodies CollectBodies(const Router& router, const RequestContext& context) {
  QueryBodies bodies;
  HttpResponse response = router.Dispatch(Get("/query/selfjoin"), context);
  EXPECT_EQ(response.status, 200);
  bodies.selfjoin = response.body;
  response = router.Dispatch(Get("/query/point", {{"key", "7"}}), context);
  EXPECT_EQ(response.status, 200);
  bodies.point = response.body;
  response = router.Dispatch(Get("/query/distinct"), context);
  EXPECT_EQ(response.status, 200);
  bodies.distinct = response.body;
  response = router.Dispatch(Get("/query/quantile", {{"q", "0.9"}}), context);
  EXPECT_EQ(response.status, 200);
  bodies.quantile = response.body;
  response =
      router.Dispatch(Get("/query/subpop", {{"filter", "mod:7-3"}}), context);
  EXPECT_EQ(response.status, 200);
  bodies.subpop = response.body;
  response = router.Dispatch(Get("/stats"), context);
  EXPECT_EQ(response.status, 200);
  bodies.stats_snapshot = response.body;
  return bodies;
}

TEST(ServiceRouterTest, UnknownPathIs404KnownPathWrongMethodIs405) {
  SketchService service(SmallOptions());
  Router router;
  service.Register(router);
  RequestContext context;

  EXPECT_EQ(router.Dispatch(Get("/nope"), context).status, 404);
  EXPECT_EQ(router.Dispatch(Post("/query/selfjoin"), context).status, 405);
  EXPECT_EQ(router.Dispatch(Get("/ingest"), context).status, 405);
  EXPECT_EQ(router.Dispatch(Get("/healthz"), context).status, 200);
}

TEST(ServiceOptionsTest, BadLevelAndIncompatibleJoinSketchThrow) {
  SketchServiceOptions bad_level = SmallOptions();
  bad_level.default_level = 1.0;
  EXPECT_THROW(SketchService{bad_level}, std::invalid_argument);

  SketchServiceOptions bad_join = SmallOptions();
  SketchParams other = bad_join.sketch;
  other.seed = kSketchSeed + 1;  // shape matches, seed does not
  bad_join.join_sketch = SerializeSketch(FagmsSketch(other));
  EXPECT_THROW(SketchService{bad_join}, std::invalid_argument);
}

TEST(ServiceIngestTest, ParsesBodyStrictlyAndAtomically) {
  SketchService service(SmallOptions());
  Router router;
  service.Register(router);
  RequestContext context;
  service.Start();

  HttpResponse ok = router.Dispatch(Post("/ingest", " 1 2\t3\r\n4\n"), context);
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(service.pushed(), 4u);

  // A malformed batch must reject without pushing anything.
  HttpResponse bad = router.Dispatch(Post("/ingest", "5 6 x7 8"), context);
  EXPECT_EQ(bad.status, 400);
  EXPECT_EQ(service.pushed(), 4u);
  HttpResponse negative = router.Dispatch(Post("/ingest", "-3"), context);
  EXPECT_EQ(negative.status, 400);
  HttpResponse overflow =
      router.Dispatch(Post("/ingest", "99999999999999999999999"), context);
  EXPECT_EQ(overflow.status, 400);
  EXPECT_EQ(service.pushed(), 4u);

  // Close via the endpoint; further ingest posts answer 409.
  HttpResponse close = router.Dispatch(Post("/ingest/close"), context);
  EXPECT_EQ(close.status, 200);
  EXPECT_EQ(router.Dispatch(Post("/ingest", "9"), context).status, 409);
  service.Stop();
}

TEST(ServiceQueryTest, ErrorPathsAnswerTypedStatuses) {
  SketchServiceOptions options = SmallOptions();
  options.engine.distinct_k = 0;   // distinct endpoint disabled
  options.engine.quantile_k = 0;   // quantile endpoint disabled
  options.engine.subpop_k = 0;     // subpop endpoint disabled
  SketchService service(options);
  Router router;
  service.Register(router);
  RequestContext context;

  // Queries answer from the initial empty snapshot before ingest starts.
  EXPECT_EQ(router.Dispatch(Get("/query/selfjoin"), context).status, 200);
  // Point query key validation.
  EXPECT_EQ(router.Dispatch(Get("/query/point"), context).status, 400);
  EXPECT_EQ(
      router.Dispatch(Get("/query/point", {{"key", "12x"}}), context).status,
      400);
  // Level validation: must be a finite number in (0, 1).
  for (const char* level : {"0", "1", "1.5", "-0.5", "nan", "abc", ""}) {
    EXPECT_EQ(router
                  .Dispatch(Get("/query/selfjoin", {{"level", level}}), context)
                  .status,
              400)
        << "level=" << level;
  }
  // No reference sketch configured.
  EXPECT_EQ(router.Dispatch(Get("/query/join"), context).status, 400);
  // Distinct counting, quantiles, subpopulations all disabled.
  EXPECT_EQ(router.Dispatch(Get("/query/distinct"), context).status, 400);
  const HttpResponse quantile =
      router.Dispatch(Get("/query/quantile", {{"q", "0.5"}}), context);
  EXPECT_EQ(quantile.status, 400);
  EXPECT_NE(quantile.body.find("quantile queries disabled"),
            std::string::npos);
  const HttpResponse subpop =
      router.Dispatch(Get("/query/subpop", {{"filter", "mod:2-1"}}), context);
  EXPECT_EQ(subpop.status, 400);
  EXPECT_NE(subpop.body.find("subpopulation queries disabled"),
            std::string::npos);
}

// Every malformed quantile/subpop parameter is a typed 400 from the
// parameter validators — never a 500, never a crash, never a partial
// answer. The predicate grammar failures come out of ParseSubpopFilter
// with its message passed through verbatim.
TEST(ServiceQueryTest, HostileQuantileAndSubpopParamsAnswer400) {
  SketchService service(SmallOptions());
  Router router;
  service.Register(router);
  RequestContext context;

  // Missing and malformed ranks.
  EXPECT_EQ(router.Dispatch(Get("/query/quantile"), context).status, 400);
  for (const char* q :
       {"1.5", "-0.1", "abc", "nan", "inf", "", "0.5x", "0..5"}) {
    EXPECT_EQ(
        router.Dispatch(Get("/query/quantile", {{"q", q}}), context).status,
        400)
        << "q=" << q;
  }
  // Boundary ranks are legal.
  EXPECT_EQ(router.Dispatch(Get("/query/quantile", {{"q", "0"}}), context)
                .status,
            200);
  EXPECT_EQ(router.Dispatch(Get("/query/quantile", {{"q", "1"}}), context)
                .status,
            200);

  // Missing and malformed filters.
  EXPECT_EQ(router.Dispatch(Get("/query/subpop"), context).status, 400);
  for (const char* filter :
       {"garbage", "mod:0-0", "mod:5-5", "range:9-2", "mask:3-4", "mod:5",
        "between:1-2", "range:a-b", "mod:-1-0", "range:1-2-3x", ""}) {
    EXPECT_EQ(router.Dispatch(Get("/query/subpop", {{"filter", filter}}),
                              context)
                  .status,
              400)
        << "filter=" << filter;
  }
  // All three predicate kinds parse and answer.
  for (const char* filter : {"range:10-20", "mod:7-3", "mask:255-129"}) {
    EXPECT_EQ(router.Dispatch(Get("/query/subpop", {{"filter", filter}}),
                              context)
                  .status,
              200)
        << "filter=" << filter;
  }
}

TEST(ServiceQueryTest, ResponsesComeFromTheSharedBuilders) {
  SketchService service(SmallOptions());
  Router router;
  service.Register(router);
  RequestContext context;
  const std::vector<uint64_t> stream = MakeStream(20000, 7, 500);
  RunToCompletion(service, stream, 4096);

  // Reader slot distinct from the dispatch context's slot 0.
  auto guard = service.registry().Read(1);
  ASSERT_TRUE(guard);
  EXPECT_EQ(guard->position, stream.size());

  const double level = service.options().default_level;
  HttpResponse selfjoin = router.Dispatch(Get("/query/selfjoin"), context);
  EXPECT_EQ(selfjoin.body,
            SelfJoinResponseJson(*guard, std::nullopt, level).Dump() + "\n");
  HttpResponse point =
      router.Dispatch(Get("/query/point", {{"key", "123"}}), context);
  EXPECT_EQ(point.body,
            PointResponseJson(*guard, 123, std::nullopt, level).Dump() + "\n");
  HttpResponse distinct = router.Dispatch(Get("/query/distinct"), context);
  EXPECT_EQ(distinct.body, DistinctResponseJson(*guard, level).Dump() + "\n");
  HttpResponse quantile =
      router.Dispatch(Get("/query/quantile", {{"q", "0.5"}}), context);
  EXPECT_EQ(quantile.body,
            QuantileResponseJson(*guard, 0.5, level).Dump() + "\n");
  HttpResponse subpop =
      router.Dispatch(Get("/query/subpop", {{"filter", "mod:7-3"}}), context);
  EXPECT_EQ(subpop.body,
            SubpopResponseJson(*guard, ParseSubpopFilter("mod:7-3"), level)
                    .Dump() +
                "\n");

  // ?level= flows through to the interval.
  HttpResponse wide =
      router.Dispatch(Get("/query/selfjoin", {{"level", "0.5"}}), context);
  EXPECT_EQ(wide.body,
            SelfJoinResponseJson(*guard, std::nullopt, 0.5).Dump() + "\n");
  EXPECT_NE(wide.body, selfjoin.body);
}

TEST(ServiceQueryTest, JoinEndpointUsesTheReferenceSketch) {
  SketchServiceOptions options = SmallOptions();
  FagmsSketch reference(options.sketch);
  const std::vector<uint64_t> other = MakeStream(5000, 11, 500);
  reference.UpdateBatch(other);
  options.join_sketch = SerializeSketch(reference);

  SketchService service(options);
  Router router;
  service.Register(router);
  RequestContext context;
  const std::vector<uint64_t> stream = MakeStream(20000, 7, 500);
  RunToCompletion(service, stream, 4096);

  auto guard = service.registry().Read(1);
  ASSERT_TRUE(guard);
  HttpResponse join = router.Dispatch(Get("/query/join"), context);
  EXPECT_EQ(join.status, 200);
  EXPECT_EQ(join.body,
            JoinResponseJson(*guard, reference, std::nullopt, std::nullopt,
                             options.default_level)
                    .Dump() +
                "\n");
}

// The bit-exactness contract the service-smoke CI job holds over HTTP:
// the same (configuration, stream) must produce byte-identical query
// responses no matter how the producer chunked its pushes.
TEST(ServiceDeterminismTest, ResponsesAreBitExactAcrossPushChunkings) {
  const std::vector<uint64_t> stream = MakeStream(30000, 13, 1000);

  QueryBodies bodies[2];
  const size_t batches[2] = {30000, 777};  // one big push vs ragged pushes
  for (int run = 0; run < 2; ++run) {
    SketchService service(SmallOptions());
    Router router;
    service.Register(router);
    RequestContext context;
    RunToCompletion(service, stream, batches[run]);
    bodies[run] = CollectBodies(router, context);
  }
  EXPECT_EQ(bodies[0].selfjoin, bodies[1].selfjoin);
  EXPECT_EQ(bodies[0].point, bodies[1].point);
  EXPECT_EQ(bodies[0].distinct, bodies[1].distinct);
  EXPECT_EQ(bodies[0].quantile, bodies[1].quantile);
  EXPECT_EQ(bodies[0].subpop, bodies[1].subpop);
}

TEST(ServiceDeterminismTest, ShardCountDoesNotChangeResponses) {
  const std::vector<uint64_t> stream = MakeStream(30000, 13, 1000);
  QueryBodies bodies[2];
  const size_t shard_counts[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    SketchServiceOptions options = SmallOptions();
    options.engine.shards = shard_counts[run];
    SketchService service(options);
    Router router;
    service.Register(router);
    RequestContext context;
    RunToCompletion(service, stream, 4096);
    bodies[run] = CollectBodies(router, context);
  }
  EXPECT_EQ(bodies[0].selfjoin, bodies[1].selfjoin);
  EXPECT_EQ(bodies[0].point, bodies[1].point);
  EXPECT_EQ(bodies[0].distinct, bodies[1].distinct);
  EXPECT_EQ(bodies[0].quantile, bodies[1].quantile);
  EXPECT_EQ(bodies[0].subpop, bodies[1].subpop);
}

// Kill-and-resume: checkpoint mid-stream, build a fresh service from the
// checkpoint, re-push the stream from the beginning (restore fast-forwards
// past the prefix), and require the resumed responses to match an
// uninterrupted run byte-for-byte — modulo the `sequence` field, which is a
// per-process publication counter.
TEST(ServiceResumeTest, ResumedServiceMatchesUninterruptedRun) {
  const std::vector<uint64_t> stream = MakeStream(30000, 19, 1000);

  // Uninterrupted reference run.
  SketchService reference(SmallOptions());
  {
    Router router;
    reference.Register(router);
    RunToCompletion(reference, stream, 4096);
  }

  // Checkpointing run, stopped early by max_tuples (the in-process stand-in
  // for kill -9: the engine simply never sees the rest of the stream).
  LatestCheckpointSink sink;
  SketchServiceOptions first = SmallOptions();
  first.engine.checkpoint_sink = &sink;
  first.engine.checkpoint_every = 4096;
  first.engine.max_tuples = 20000;
  SketchService interrupted(first);
  {
    Router router;
    interrupted.Register(router);
    RunToCompletion(interrupted, stream, 4096);
  }
  ASSERT_GT(sink.writes(), 0u);
  ASSERT_GT(sink.source_tuples(), 0u);
  ASSERT_LT(sink.source_tuples(), stream.size());

  // Resumed run: fresh service, restore, re-push from the beginning.
  SketchServiceOptions second = SmallOptions();
  second.resume = sink.bytes();
  SketchService resumed(second);
  Router router;
  resumed.Register(router);
  RunToCompletion(resumed, stream, 4096);

  auto ref_guard = reference.registry().Read(1);
  auto res_guard = resumed.registry().Read(1);
  ASSERT_TRUE(ref_guard);
  ASSERT_TRUE(res_guard);
  EXPECT_EQ(res_guard->position, stream.size());
  EXPECT_EQ(res_guard->kept, ref_guard->kept);

  // Compare through the builders with the sequence pinned, exactly how the
  // smoke script compares (it filters "sequence" before diffing).
  ServiceSnapshot ref_view = *ref_guard;
  ServiceSnapshot res_view = *res_guard;
  ref_view.sequence = 0;
  res_view.sequence = 0;
  EXPECT_EQ(SelfJoinResponseJson(ref_view, std::nullopt, 0.95).Dump(),
            SelfJoinResponseJson(res_view, std::nullopt, 0.95).Dump());
  EXPECT_EQ(PointResponseJson(ref_view, 7, std::nullopt, 0.95).Dump(),
            PointResponseJson(res_view, 7, std::nullopt, 0.95).Dump());
  EXPECT_EQ(DistinctResponseJson(ref_view, 0.95).Dump(),
            DistinctResponseJson(res_view, 0.95).Dump());
  // The checkpoint carried the KLL and keyed-KMV state (flag bit 4), so
  // the resumed quantile/subpop answers must be byte-identical too.
  EXPECT_EQ(QuantileResponseJson(ref_view, 0.9, 0.95).Dump(),
            QuantileResponseJson(res_view, 0.9, 0.95).Dump());
  const SubpopPredicate pred = ParseSubpopFilter("mod:7-3");
  EXPECT_EQ(SubpopResponseJson(ref_view, pred, 0.95).Dump(),
            SubpopResponseJson(res_view, pred, 0.95).Dump());
}

// An engine that stops early (max_tuples here; an engine error or stall
// death ends the same way) must not leave producers blocked on a full push
// buffer: the ingest thread keeps draining, and discarding, until ingest
// closes. Producers are acknowledged in full, and answers keep the
// ingest_stalled degraded stamp.
TEST(ServiceIngestTest, ProducersNeverBlockAfterTheEngineStops) {
  SketchServiceOptions options = SmallOptions();
  options.engine.max_tuples = 1000;
  SketchService service(options);
  Router router;
  service.Register(router);
  service.Start();

  const std::vector<uint64_t> stream = MakeStream(size_t{1} << 21, 29, 1000);
  std::future<size_t> feeder = std::async(std::launch::async, [&] {
    size_t accepted = 0;
    for (size_t i = 0; i < stream.size(); i += 4096) {
      const size_t n = std::min<size_t>(4096, stream.size() - i);
      accepted += service.Push(stream.data() + i, n);
    }
    return accepted;
  });
  if (feeder.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    service.CloseIngest();  // frees the blocked feeder
    feeder.wait();
    FAIL() << "a producer stayed blocked after the engine stopped";
  }
  EXPECT_EQ(feeder.get(), stream.size());
  EXPECT_EQ(service.pushed(), stream.size());
  EXPECT_TRUE(service.ingest_done());

  RequestContext context;
  const HttpResponse response =
      router.Dispatch(Get("/query/selfjoin"), context);
  ASSERT_EQ(response.status, 200);
  const std::optional<JsonValue> body = JsonValue::Parse(response.body);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->GetNumber("position"), 1000.0);
  EXPECT_TRUE(body->Get("degraded")->AsBool())
      << "answers after the engine stopped must carry the degraded stamp";
  service.Stop();
  EXPECT_EQ(service.ingest_error(), "");
}

// Freshness gate, in tuples so that it holds on any host. The router pulls
// at most one chunk at a time and clamps each pull to the next publish
// boundary, so once a Push returns, its newest tuple is at most one full
// push buffer (still queued), one pulled chunk (being routed) and one
// publish interval (routed since the latest snapshot) ahead of the
// published snapshot. With the default options the bound is a literal: a
// larger default push buffer puts every answer further behind ingest.
TEST(ServiceFreshnessTest, DefaultOptionsBoundSnapshotStalenessInTuples) {
  const SketchServiceOptions options;
  const uint64_t bound = options.push_buffer + options.engine.chunk_tuples +
                         options.snapshot_every;
  constexpr uint64_t kDefaultBound = (uint64_t{1} << 16) + 1024 + 8192;
  SketchService service(options);
  service.Start();

  const std::vector<uint64_t> stream = MakeStream(size_t{1} << 21, 37, 100000);
  for (size_t i = 0; i < stream.size(); i += 4096) {
    const size_t n = std::min<size_t>(4096, stream.size() - i);
    ASSERT_EQ(service.Push(stream.data() + i, n), n);
    const uint64_t pushed = service.pushed();
    auto guard = service.registry().Read(0);
    ASSERT_TRUE(guard);
    ASSERT_LE(guard->position, pushed);
    const uint64_t staleness = pushed - guard->position;
    ASSERT_LE(staleness, bound) << "after pushing " << pushed << " tuples";
    ASSERT_LE(staleness, kDefaultBound) << "after pushing " << pushed
                                        << " tuples";
  }
  service.CloseIngest();
  while (!service.ingest_done()) std::this_thread::yield();
  ASSERT_EQ(service.ingest_error(), "");
}

TEST(ServiceStatsTest, StatsTrackIngestAndQueryCounters) {
  SketchService service(SmallOptions());
  Router router;
  service.Register(router);
  RequestContext context;
  const std::vector<uint64_t> stream = MakeStream(10000, 5, 200);
  RunToCompletion(service, stream, 2048);

  router.Dispatch(Get("/query/selfjoin"), context);
  router.Dispatch(Get("/query/selfjoin"), context);
  router.Dispatch(Get("/query/distinct"), context);
  for (const char* q : {"0.1", "0.5", "0.9"}) {
    router.Dispatch(Get("/query/quantile", {{"q", q}}), context);
  }
  router.Dispatch(Get("/query/subpop", {{"filter", "mod:4-0"}}), context);
  // Rejected queries must not bump the served counters.
  router.Dispatch(Get("/query/quantile", {{"q", "2"}}), context);
  router.Dispatch(Get("/query/subpop", {{"filter", "bogus"}}), context);

  HttpResponse stats = router.Dispatch(Get("/stats"), context);
  ASSERT_EQ(stats.status, 200);
  const std::optional<JsonValue> body = JsonValue::Parse(stats.body);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->GetNumber("pushed"), 10000.0);
  EXPECT_FALSE(body->Get("ingest_open")->AsBool());
  EXPECT_TRUE(body->Get("ingest_done")->AsBool());
  EXPECT_EQ(body->Get("queries")->GetNumber("selfjoin"), 2.0);
  EXPECT_EQ(body->Get("queries")->GetNumber("distinct"), 1.0);
  EXPECT_EQ(body->Get("queries")->GetNumber("quantile"), 3.0);
  EXPECT_EQ(body->Get("queries")->GetNumber("subpop"), 1.0);
  const JsonValue* snapshot = body->Get("snapshot");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->GetNumber("position"), 10000.0);
  EXPECT_TRUE(snapshot->Get("distinct_enabled")->AsBool());
  EXPECT_TRUE(snapshot->Get("quantile_enabled")->AsBool());
  EXPECT_TRUE(snapshot->Get("subpop_enabled")->AsBool());
}

// Queries racing live ingest: every response must be internally consistent
// (kept <= position <= total pushed, 200 status, parseable JSON). Runs
// under TSan via the `tsan` ctest label; torn snapshots or a query touching
// the write path would be flagged there.
TEST(ServiceConcurrencyTest, QueriesRacingIngestSeeOnlyConsistentSnapshots) {
  SketchServiceOptions options = SmallOptions();
  options.snapshot_every = 512;  // force frequent rollover under the race
  SketchService service(options);
  Router router;
  service.Register(router);
  service.Start();

  const std::vector<uint64_t> stream = MakeStream(60000, 23, 1000);
  constexpr size_t kReaders = 3;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      RequestContext context;
      context.reader_slot = r;
      uint64_t last_position = 0;
      while (!stop.load(std::memory_order_acquire)) {
        HttpResponse response =
            router.Dispatch(Get(r % 2 == 0 ? "/query/selfjoin"
                                           : "/query/distinct"),
                            context);
        ASSERT_EQ(response.status, 200);
        const std::optional<JsonValue> body = JsonValue::Parse(response.body);
        ASSERT_TRUE(body.has_value());
        const double position = body->GetNumber("position").value();
        const double kept = body->GetNumber("kept").value();
        ASSERT_GE(position, 0.0);
        ASSERT_LE(kept, position);
        ASSERT_LE(position, static_cast<double>(stream.size()));
        // Snapshots a single reader observes advance monotonically.
        ASSERT_GE(position, static_cast<double>(last_position));
        last_position = static_cast<uint64_t>(position);
      }
    });
  }

  for (size_t i = 0; i < stream.size(); i += 1024) {
    const size_t n = std::min<size_t>(1024, stream.size() - i);
    ASSERT_EQ(service.Push(stream.data() + i, n), n);
  }
  service.CloseIngest();
  while (!service.ingest_done()) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  ASSERT_EQ(service.ingest_error(), "");
  RequestContext context;
  context.reader_slot = kReaders;
  HttpResponse final_response =
      router.Dispatch(Get("/query/selfjoin"), context);
  const std::optional<JsonValue> body = JsonValue::Parse(final_response.body);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->GetNumber("position"), static_cast<double>(stream.size()));
}

}  // namespace
}  // namespace sketchsample
