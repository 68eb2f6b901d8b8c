// Per-layer metrics of a traced run. The workload's stream and configuration
// pass through ever-longer prefixes of the real path (the ingest ladder),
// and each layer's cost is the difference between adjacent rungs in wall ns
// per offered tuple. The query ladder does the same for one request per
// endpoint against a sealed snapshot.
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>

#include "perfbench/bench.h"
#include "src/sampling/bernoulli.h"
#include "src/service/client.h"
#include "src/service/router.h"
#include "src/service/server.h"
#include "src/stream/pipeline.h"
#include "src/stream/source.h"

namespace perfbench {

using namespace sketchsample;

namespace {

constexpr int kRungReps = 5;
constexpr int64_t kCallLoopNs = 10'000'000;

// Discards snapshots: isolates what the engine spends cutting them.
class DropSnapshots final : public ShardSnapshotHook<FagmsSketch> {
 public:
  void Publish(ShardEngineSnapshot<FagmsSketch>) override {}
};

// Runs each pass kRungReps times, round-robin across passes, so slow drift
// of the host spreads over every rung instead of biasing one; returns the
// median of each pass's results.
std::vector<double> InterleavedMedians(
    const std::vector<std::function<double()>>& passes) {
  std::vector<std::vector<double>> reps(passes.size());
  for (int rep = 0; rep < kRungReps; ++rep) {
    for (size_t i = 0; i < passes.size(); ++i) reps[i].push_back(passes[i]());
  }
  std::vector<double> medians;
  for (const std::vector<double>& r : reps) medians.push_back(Median(r));
  return medians;
}

// One named call of the query ladder.
struct Call {
  const char* name;
  std::function<void()> call;
};

// Median ns per call of each callable: each pass loops one callable for
// ~10 ms, interleaved as InterleavedMedians runs them.
std::vector<double> NsPerCall(Tracer* tracer, const std::vector<Call>& calls) {
  std::vector<std::function<double()>> passes;
  for (const Call& c : calls) {
    passes.push_back([tracer, &c] {
      Span span(tracer, c.name);
      uint64_t n = 0;
      const int64_t t0 = NowNs();
      int64_t t1 = t0;
      do {
        for (int i = 0; i < 8; ++i) c.call();
        n += 8;
        t1 = NowNs();
      } while (t1 - t0 < kCallLoopNs);
      return static_cast<double>(t1 - t0) / static_cast<double>(n);
    });
  }
  return InterleavedMedians(passes);
}

void WaitIngestDone(const SketchService& service) {
  while (!service.ingest_done()) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  if (!service.ingest_error().empty()) {
    throw std::runtime_error("ladder ingest error: " + service.ingest_error());
  }
}

// Pushes the whole stream in kBatch pieces and closes ingest.
void PushAll(SketchService& service, const std::vector<uint64_t>& stream) {
  for (size_t at = 0; at < stream.size(); at += kBatch) {
    const size_t n = std::min(kBatch, stream.size() - at);
    if (service.Push(stream.data() + at, n) != n) {
      throw std::runtime_error("ladder push was cut short");
    }
  }
  service.CloseIngest();
}

struct Endpoint {
  const char* name;
  std::string target;
  double weight;  // share in the query_mixed mix
};

std::vector<Endpoint> Endpoints() {
  return {{"selfjoin", "/query/selfjoin", 2},
          {"point", "/query/point?key=7", 2},
          {"distinct", "/query/distinct", 1},
          {"quantile", "/query/quantile?q=0.5", 1},
          {"subpop", "/query/subpop?filter=mod:10-3", 1}};
}

JsonValue Build(const Inputs& in, const std::string& endpoint) {
  const ServiceSnapshot& snap = *in.sealed;
  QueryFreshness fresh;
  fresh.pushed = in.stream.size();
  const double level = in.options.default_level;
  if (endpoint == "selfjoin") {
    return SelfJoinResponseJson(snap, in.options.moments_f, level, fresh);
  }
  if (endpoint == "point") {
    return PointResponseJson(snap, 7, in.options.moments_f, level, fresh);
  }
  if (endpoint == "distinct") return DistinctResponseJson(snap, level, fresh);
  if (endpoint == "quantile") {
    return QuantileResponseJson(snap, 0.5, level, fresh);
  }
  return SubpopResponseJson(snap, ParseSubpopFilter("mod:10-3"), level, fresh);
}

}  // namespace

std::map<std::string, double> RunLadder(const Inputs& in,
                                        double e2e_ns_per_tuple,
                                        Tracer* tracer,
                                        std::vector<std::string>* notes) {
  std::map<std::string, double> m;
  const std::vector<uint64_t>& stream = in.stream;
  const double offered = static_cast<double>(stream.size());
  const SketchServiceOptions& opt = in.options;
  const ShardEngineOptions& eng = opt.engine;
  const size_t chunk = kPipelineChunk;

  // ---- kept stream, chunk by chunk as the lanes see it (untimed) --------
  const PositionalBernoulliSampler sampler(eng.shed_p, eng.seed);
  std::vector<uint64_t> kept(stream.size());
  std::vector<size_t> kept_end;  // end offset of each chunk's survivors
  {
    size_t k = 0;
    for (size_t at = 0; at < stream.size(); at += chunk) {
      const size_t n = std::min(chunk, stream.size() - at);
      k += sampler.KeepBatch(at, stream.data() + at, n, kept.data() + k);
      kept_end.push_back(k);
    }
    kept.resize(k);
  }
  const double kept_n = static_cast<double>(kept.size());

  // ---- ingest ladder: wall time of ever-longer prefixes ----------------
  std::vector<uint64_t> scratch(chunk);
  auto keep_pass = [&] {
    Span span(tracer, "sampling.keep_batch");
    const int64_t t0 = NowNs();
    size_t sink = 0;
    for (size_t at = 0; at < stream.size(); at += chunk) {
      const size_t n = std::min(chunk, stream.size() - at);
      sink += sampler.KeepBatch(at, stream.data() + at, n, scratch.data());
    }
    const int64_t t1 = NowNs();
    if (sink != kept.size()) throw std::runtime_error("KeepBatch changed");
    return static_cast<double>(t1 - t0);
  };
  auto fagms_pass = [&] {
    FagmsSketch sketch(opt.sketch);
    Span span(tracer, "sketch.fagms_update_batch");
    const int64_t t0 = NowNs();
    size_t begin = 0;
    for (size_t end : kept_end) {
      if (end > begin) sketch.UpdateBatch(kept.data() + begin, end - begin);
      begin = end;
    }
    return static_cast<double>(NowNs() - t0);
  };
  auto kmv_pass = [&] {
    KmvSketch sketch(eng.distinct_k, ShardDistinctSeed(eng.seed));
    Span span(tracer, "sketch.kmv_update");
    const int64_t t0 = NowNs();
    for (uint64_t v : kept) sketch.Update(v);
    return static_cast<double>(NowNs() - t0);
  };
  auto kll_pass = [&] {
    KllSketch sketch(eng.quantile_k, ShardQuantileSeed(eng.seed));
    Span span(tracer, "sketch.kll_update");
    const int64_t t0 = NowNs();
    for (uint64_t v : kept) sketch.Update(v);
    return static_cast<double>(NowNs() - t0);
  };
  auto subpop_pass = [&] {
    KeyedKmvSketch sketch(eng.subpop_k, ShardSubpopSeed(eng.seed));
    Span span(tracer, "sketch.subpop_update");
    const int64_t t0 = NowNs();
    for (uint64_t v : kept) sketch.Update(v);
    return static_cast<double>(NowNs() - t0);
  };
  ShardEngineStats hooked_stats;
  auto engine_pass = [&](bool hooked) {
    ShardEngine<FagmsSketch> engine(FagmsSketch(opt.sketch), eng);
    DropSnapshots drop;
    if (hooked) engine.SetSnapshotHook(&drop, opt.snapshot_every);
    VectorSource source(stream);
    Span span(tracer, hooked ? "stream.engine_run_hooked" : "stream.engine_run");
    const int64_t t0 = NowNs();
    const ShardEngineStats stats = engine.Run(source);
    const int64_t t1 = NowNs();
    if (hooked) hooked_stats = stats;
    return static_cast<double>(t1 - t0);
  };
  auto push_pass = [&] {
    SketchService service(opt);
    service.Start();
    Span span(tracer, "service.push_path");
    const int64_t t0 = NowNs();
    PushAll(service, stream);
    WaitIngestDone(service);
    return static_cast<double>(NowNs() - t0);
  };
  const std::vector<double> wall = InterleavedMedians(
      {keep_pass, fagms_pass, kmv_pass, kll_pass, subpop_pass,
       [&] { return engine_pass(false); }, [&] { return engine_pass(true); },
       push_pass});
  const double fagms_ns = wall[1], kmv_ns = wall[2], kll_ns = wall[3],
               subpop_ns = wall[4], engine_ns = wall[5], hooked_ns = wall[6];
  const std::vector<Rung> rungs = {
      {"sampling", wall[0] / offered, {}},
      {"sketch.fagms", fagms_ns / offered, {}},
      {"sketch.kmv", kmv_ns / offered, {}},
      {"sketch.kll", kll_ns / offered, {}},
      {"sketch.subpop", subpop_ns / offered, {}},
      {"stream.engine", engine_ns / offered,
       {"sampling", "sketch.fagms", "sketch.kmv", "sketch.kll",
        "sketch.subpop"}},
      {"stream.publish", hooked_ns / offered, {"stream.engine"}},
      {"service.push", wall[7] / offered, {"stream.publish"}},
  };

  // ---- HTTP front end: busy time of the calls that hand tuples over -----
  // The connection thread parses and pushes while the engine drains the
  // PushSource, so its cost overlaps the rungs above instead of adding to
  // them. These rungs push into a PushSource that holds the whole stream,
  // and time only the hand-over, so they read the front end's own cost.
  std::vector<Rung> front;
  if (in.http_ingest()) {
    SketchServiceOptions roomy = opt;
    roomy.push_buffer = stream.size();
    std::vector<std::string> posts;
    std::vector<HttpRequest> parsed;
    for (const std::string& body : in.bodies) {
      posts.push_back(PostRequestBytes("/ingest", body));
      parsed.push_back(ParseRequestBytes(posts.back()));
    }
    auto enqueue_pass = [&] {
      SketchService service(roomy);
      service.Start();
      Span span(tracer, "service.push_enqueue");
      const int64_t t0 = NowNs();
      for (size_t at = 0; at < stream.size(); at += kBatch) {
        service.Push(stream.data() + at, std::min(kBatch, stream.size() - at));
      }
      const int64_t t1 = NowNs();
      service.CloseIngest();
      WaitIngestDone(service);
      return static_cast<double>(t1 - t0);
    };
    auto parse_pass = [&] {
      HttpRequestParser parser{HttpLimits{}};
      HttpRequest request;
      Span span(tracer, "service.http_parse_post");
      const int64_t t0 = NowNs();
      for (const std::string& bytes : posts) {
        parser.Feed(bytes.data(), bytes.size());
        if (!parser.Next(&request)) throw std::runtime_error("POST parse");
      }
      return static_cast<double>(NowNs() - t0);
    };
    auto dispatch_pass = [&] {
      SketchService service(roomy);
      Router router;
      service.Register(router);
      service.Start();
      RequestContext context;
      context.reader_slot = kInProcessSlot;
      Span span(tracer, "service.dispatch_post");
      const int64_t t0 = NowNs();
      for (const HttpRequest& request : parsed) {
        if (router.Dispatch(request, context).status != 200) {
          throw std::runtime_error("POST dispatch failed");
        }
      }
      const int64_t t1 = NowNs();
      service.CloseIngest();
      WaitIngestDone(service);
      return static_cast<double>(t1 - t0);
    };
    auto post_pass = [&] {
      SketchService service(roomy);
      Router router;
      service.Register(router);
      HttpServer server(&router, HttpServerOptions{});
      server.Start();
      service.Start();
      HttpClient client("127.0.0.1", server.port());
      if (client.Get("/healthz").status != 200) {
        throw std::runtime_error("healthz failed");
      }
      Span span(tracer, "service.http_post_path");
      const int64_t t0 = NowNs();
      for (const std::string& body : in.bodies) {
        if (client.Post("/ingest", body).status != 200) {
          throw std::runtime_error("POST /ingest failed");
        }
      }
      const int64_t t1 = NowNs();
      service.CloseIngest();
      WaitIngestDone(service);
      server.Stop();
      return static_cast<double>(t1 - t0);
    };
    const std::vector<double> busy =
        InterleavedMedians({enqueue_pass, parse_pass, dispatch_pass, post_pass});
    front = {
        {"service.push_enqueue", busy[0] / offered, {}},
        {"service.ingest_parse", busy[1] / offered, {}},
        {"service.ingest_body", busy[2] / offered, {"service.push_enqueue"}},
        {"service.ingest_socket", busy[3] / offered,
         {"service.ingest_parse", "service.ingest_body"}},
    };
  }

  const LadderResult ladder = ComputeLadder(rungs, e2e_ns_per_tuple);
  const LadderResult front_ladder = ComputeLadder(front, std::nullopt);
  auto row = [&](const std::string& name) {
    for (const LadderResult* l : {&ladder, &front_ladder}) {
      for (const LadderRow& r : l->rows) {
        if (r.name == name) {
          if (!r.note.empty()) notes->push_back(name + ": " + r.note);
          return r.value;
        }
      }
    }
    notes->push_back(name + ": not on this workload's path (reported as 0)");
    return 0.0;
  };
  m["sampling.keep_ns_per_tuple"] = row("sampling");
  m["sketch.fagms_ns_per_kept"] = fagms_ns / kept_n;
  m["sketch.kmv_ns_per_kept"] = kmv_ns / kept_n;
  m["sketch.kll_ns_per_kept"] = kll_ns / kept_n;
  m["sketch.subpop_ns_per_kept"] = subpop_ns / kept_n;
  m["stream.engine_ns_per_tuple"] = row("stream.engine");
  m["stream.publish_ns_per_tuple"] = row("stream.publish");
  m["stream.publish_us_per_snapshot"] =
      hooked_stats.snapshots > 0
          ? (hooked_ns - engine_ns) / static_cast<double>(hooked_stats.snapshots) / 1e3
          : 0.0;
  m["service.push_ns_per_tuple"] = row("service.push");
  m["service.ingest_parse_ns_per_tuple"] = row("service.ingest_parse");
  m["service.ingest_body_ns_per_tuple"] = row("service.ingest_body");
  m["service.ingest_socket_ns_per_tuple"] = row("service.ingest_socket");
  m["unaccounted_ns_per_tuple"] = ladder.unaccounted;
  if (!ladder.unaccounted_note.empty()) {
    notes->push_back("unaccounted_ns_per_tuple: " + ladder.unaccounted_note);
  }
  // The ladder tables, each rung beside the layer it adds.
  auto table = [&](const char* title, const std::vector<Rung>& r,
                   const LadderResult& l) {
    for (size_t i = 0; i < r.size(); ++i) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "%s %-22s rung %9.3f ns/tuple  layer %9.3f ns/tuple", title,
                    r[i].name.c_str(), r[i].measured.value_or(0),
                    l.rows[i].value);
      notes->push_back(line);
    }
  };
  table("ladder", rungs, ladder);
  table("front ", front, front_ladder);
  char line[160];
  std::snprintf(line, sizeof(line),
                "ladder %-22s %9.3f ns/tuple end to end, %9.3f unaccounted",
                "(untraced rounds)", e2e_ns_per_tuple, ladder.unaccounted);
  notes->push_back(line);

  const ShardEngineStats& s = hooked_stats;
  m["stream.kept_ratio"] =
      s.tuples > 0 ? static_cast<double>(s.kept) / static_cast<double>(s.tuples) : 0;
  m["stream.snapshots"] = static_cast<double>(s.snapshots);
  m["stream.quiesces"] = static_cast<double>(s.quiesces);
  m["stream.ring_full_per_chunk"] =
      s.chunks > 0 ? static_cast<double>(s.ring_full_retries) /
                         static_cast<double>(s.chunks)
                   : 0;
  m["stream.quantile_folds"] = static_cast<double>(s.quantile_folds);

  // ---- query ladder on a sealed snapshot --------------------------------
  SketchService service(opt);
  Router router;
  service.Register(router);
  HttpServer server(&router, HttpServerOptions{});
  server.Start();
  service.Start();
  PushAll(service, stream);
  WaitIngestDone(service);
  RequestContext context;
  context.reader_slot = kInProcessSlot;
  HttpClient client("127.0.0.1", server.port());

  double weight_sum = 0, parse_mix = 0, socket_mix = 0;
  for (const Endpoint& e : Endpoints()) {
    const std::string name = e.name;
    const JsonValue body = Build(in, name);
    const std::string bytes = GetRequestBytes(e.target);
    const HttpRequest request = ParseRequestBytes(bytes);
    size_t sink = 0;
    const std::vector<double> ns = NsPerCall(
        tracer,
        {{"core.build",
          [&] { sink += Build(in, name).AsObject().size(); }},
         {"util.dump_serialize",
          [&] { sink += JsonResponse(200, body).Serialize().size(); }},
         {"service.dispatch_get",
          [&] { sink += router.Dispatch(request, context).Serialize().size(); }},
         {"service.http_parse_get",
          [&] {
            HttpRequestParser parser{HttpLimits{}};
            HttpRequest out;
            parser.Feed(bytes.data(), bytes.size());
            sink += parser.Next(&out) ? 1 : 0;
          }},
         {"http.get_closed_loop", [&] {
            const HttpClient::Response response = client.Get(e.target);
            if (!response.ok || response.status != 200) {
              throw std::runtime_error("closed-loop GET failed");
            }
            sink += response.body.size();
          }}});
    if (sink == 0) throw std::runtime_error("query ladder produced nothing");
    const double build = ns[0], dump = ns[1], dispatch = ns[2], parse = ns[3],
                 rtt = ns[4];
    m["core." + name + "_build_ns"] = build;
    m["util." + name + "_dump_ns"] = dump;
    m["service." + name + "_dispatch_ns"] = dispatch - build - dump;
    if (dispatch - build - dump < 0) {
      notes->push_back("service." + name +
                       "_dispatch_ns: negative: Dispatch ran faster than "
                       "build + dump measured alone");
    }
    weight_sum += e.weight;
    parse_mix += e.weight * parse;
    socket_mix += e.weight * (rtt - dispatch - parse);
  }
  m["service.query_parse_ns"] = parse_mix / weight_sum;
  m["service.query_socket_us"] = socket_mix / weight_sum / 1e3;

  // RcuCell::Read guard acquire + release, idle and under publication.
  uint64_t sink = 0;
  m["service.rcu_read_ns"] = NsPerCall(tracer, {{"service.rcu_read", [&] {
    auto guard = service.registry().Read(kInProcessSlot);
    sink += guard->position;
  }}})[0];
  server.Stop();
  service.Stop();
  {
    SketchService live(opt);
    live.Start();
    std::thread feeder([&] { PushAll(live, stream); });
    uint64_t reads = 0;
    Span span(tracer, "service.rcu_read_under_publish");
    const int64_t t0 = NowNs();
    while (!live.ingest_done()) {
      for (int i = 0; i < 64; ++i) {
        auto guard = live.registry().Read(kInProcessSlot);
        sink += guard->position;
      }
      reads += 64;
    }
    const int64_t t1 = NowNs();
    feeder.join();
    m["service.rcu_read_ns_under_publish"] =
        static_cast<double>(t1 - t0) / static_cast<double>(reads);
  }
  if (sink == 0) notes->push_back("rcu reads saw only empty snapshots");
  return m;
}

}  // namespace perfbench
