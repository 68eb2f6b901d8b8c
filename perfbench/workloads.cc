// The three workloads: input generation, the offline reference, and one
// timed round of the serving path.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>

#include "perfbench/bench.h"
#include "src/data/zipf.h"
#include "src/service/client.h"
#include "src/service/router.h"
#include "src/service/server.h"
#include "src/stream/source.h"
#include "src/util/rng.h"

namespace perfbench {

using namespace sketchsample;

namespace {

// Keeps the last snapshot an offline engine run publishes: the run's final
// state, cut exactly where the service cuts its own.
class LastSnapshot final : public ShardSnapshotHook<FagmsSketch> {
 public:
  void Publish(ShardEngineSnapshot<FagmsSketch> snapshot) override {
    last = std::move(snapshot);
  }
  std::optional<ShardEngineSnapshot<FagmsSketch>> last;
};

SketchServiceOptions MakeOptions(Workload workload, uint64_t seed) {
  SketchServiceOptions options;
  options.sketch.rows = 3;
  options.sketch.buckets = 5000;
  options.sketch.scheme = XiScheme::kCw4;
  options.sketch.seed = MixSeed(seed, 0x5e7c);
  options.engine.shards = 2;
  options.engine.shed_p = workload == Workload::kIngestHttpP100 ? 1.0 : 0.1;
  options.engine.seed = MixSeed(seed, 0x5eed);
  options.engine.distinct_k = 1024;
  options.engine.quantile_k = 200;
  options.engine.subpop_k = 1024;
  options.snapshot_every = 8192;
  return options;
}

// Stream lengths keep one round of each workload near one second on a
// 4-CPU host, long enough for the reader's sample in every round to support
// a p99 (1000 reads) and short enough for a run to time many rounds.
size_t StreamLength(Workload workload) {
  switch (workload) {
    case Workload::kIngestP10:
      return size_t{1} << 23;
    case Workload::kIngestHttpP100:
      return size_t{1} << 22;
    case Workload::kQueryMixed:
      return size_t{1} << 22;
  }
  return 0;
}

std::string MixTarget(Xoshiro256& rng) {
  // selfjoin:point:distinct:quantile:subpop = 2:2:1:1:1
  switch (rng() % 7) {
    case 0:
    case 1:
      return "/query/selfjoin";
    case 2:
    case 3:
      return "/query/point?key=" + std::to_string(rng() % kDomain);
    case 4:
      return "/query/distinct";
    case 5: {
      char q[16];
      std::snprintf(q, sizeof(q), "0.%02u",
                    static_cast<unsigned>(rng() % 99 + 1));
      return std::string("/query/quantile?q=") + q;
    }
    default:
      return "/query/subpop?filter=mod:10-" + std::to_string(rng() % 10);
  }
}

// The body an endpoint sends for `answer`, framed as the service frames it.
std::string Wire(const JsonValue& answer) {
  return JsonResponse(200, answer).body;
}

size_t ReadPosition(const std::string& body) {
  const size_t at = body.find("\"position\":");
  if (at == std::string::npos) return 0;
  return static_cast<size_t>(std::strtoull(body.c_str() + at + 11, nullptr, 10));
}

// Fetches one answer body through the workload's own read path.
struct Reader {
  const Router* router = nullptr;        // in-process (ingest_p10)
  HttpClient* client = nullptr;          // over loopback otherwise
  std::map<std::string, HttpRequest> parsed;  // in-process requests

  bool Get(const std::string& target, std::string* body, Tracer* tracer,
           uint64_t request_id) {
    if (client != nullptr) {
      Span span(tracer, "http.get", 0, request_id);
      const HttpClient::Response response = client->Get(target);
      *body = response.body;
      return response.ok && response.status == 200;
    }
    auto it = parsed.find(target);
    if (it == parsed.end()) {
      it = parsed.emplace(target, ParseRequestBytes(GetRequestBytes(target)))
               .first;
    }
    Span span(tracer, "service.dispatch_get", 0, request_id);
    RequestContext context;
    context.reader_slot = kInProcessSlot;
    const HttpResponse response = router->Dispatch(it->second, context);
    const std::string wire = response.Serialize();  // the bytes a socket sends
    *body = response.body;
    return response.status == 200 && !wire.empty();
  }
};

}  // namespace

std::string GetRequestBytes(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

std::string PostRequestBytes(const std::string& target,
                             const std::string& body) {
  return "POST " + target +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

HttpRequest ParseRequestBytes(const std::string& bytes) {
  HttpRequestParser parser{HttpLimits{}};
  HttpRequest request;
  if (!parser.Feed(bytes.data(), bytes.size()) || !parser.Next(&request)) {
    throw std::runtime_error("benchmark request does not parse");
  }
  return request;
}

Inputs MakeInputs(Workload workload, uint64_t seed) {
  Inputs in;
  in.workload = workload;
  in.options = MakeOptions(workload, seed);

  ZipfSampler zipf(kDomain, kSkew);
  Xoshiro256 rng(MixSeed(seed, 0x57ea));
  in.stream = zipf.Stream(StreamLength(workload), rng);

  if (in.http_ingest()) {
    for (size_t at = 0; at < in.stream.size(); at += kBatch) {
      const size_t end = std::min(in.stream.size(), at + kBatch);
      std::string body;
      body.reserve((end - at) * 7);
      for (size_t i = at; i < end; ++i) {
        body += std::to_string(in.stream[i]);
        body += i + 1 < end ? ' ' : '\n';
      }
      in.bodies.push_back(std::move(body));
    }
  }

  Xoshiro256 qrng(MixSeed(seed, 0x9e7));
  if (workload == Workload::kQueryMixed) {
    in.reader_rate = kMixRate;
    for (int i = 0; i < 1 << 15; ++i) in.reader_targets.push_back(MixTarget(qrng));
  } else {
    in.reader_rate = kProbeRate;
    in.reader_targets.push_back("/query/distinct");
  }

  // Exact F2 of the stream, from the benchmark's own counts.
  std::vector<uint64_t> freq(kDomain, 0);
  for (uint64_t v : in.stream) ++freq[v];
  for (uint64_t f : freq) in.exact_f2 += static_cast<double>(f) * static_cast<double>(f);

  // Offline reference: the same configuration through ShardEngine::Run over
  // an in-memory source, with a hook at the service's publish cadence so
  // the final snapshot carries the same sequence number.
  ShardEngine<FagmsSketch> engine(FagmsSketch(in.options.sketch),
                                  in.options.engine);
  LastSnapshot hook;
  engine.SetSnapshotHook(&hook, in.options.snapshot_every);
  VectorSource source(in.stream);
  engine.Run(source);
  if (!hook.last) throw std::runtime_error("offline run published nothing");
  ShardEngineSnapshot<FagmsSketch>& last = *hook.last;
  in.sealed = std::make_unique<ServiceSnapshot>(ServiceSnapshot{
      std::move(last.sketch), std::move(last.distinct),
      std::move(last.quantile), std::move(last.subpop), last.position,
      last.kept, last.sequence, last.p});

  QueryFreshness fresh;
  fresh.pushed = in.stream.size();
  const double level = in.options.default_level;
  const ServiceSnapshot& snap = *in.sealed;
  const JsonValue selfjoin =
      SelfJoinResponseJson(snap, in.options.moments_f, level, fresh);
  in.selfjoin_estimate = selfjoin.GetNumber("estimate").value_or(0);
  in.checks.push_back({"/query/selfjoin", Wire(selfjoin)});
  for (uint64_t key : {0, 1, 7, 1000, 99999}) {
    in.checks.push_back(
        {"/query/point?key=" + std::to_string(key),
         Wire(PointResponseJson(snap, key, in.options.moments_f, level, fresh))});
  }
  in.checks.push_back(
      {"/query/distinct", Wire(DistinctResponseJson(snap, level, fresh))});
  for (const char* q : {"0.1", "0.5", "0.9", "0.99"}) {
    in.checks.push_back(
        {std::string("/query/quantile?q=") + q,
         Wire(QuantileResponseJson(snap, std::strtod(q, nullptr), level,
                                   fresh))});
  }
  for (const char* filter : {"mod:10-3", "range:0-99", "mask:1-1"}) {
    in.checks.push_back(
        {std::string("/query/subpop?filter=") + filter,
         Wire(SubpopResponseJson(snap, ParseSubpopFilter(filter), level,
                                 fresh))});
  }
  return in;
}

RoundResult RunRound(const Inputs& in, Tracer* tracer) {
  RoundResult r;
  auto fail = [&r](const std::string& what) {
    ++r.failed;
    if (r.first_failure.empty()) r.first_failure = what;
  };
  Span round_span(tracer, "round");

  // ---- set-up: service, router, server, first readable snapshot ---------
  const int64_t setup_start = NowNs();
  SketchService service(in.options);
  Router router;
  service.Register(router);
  // One keep-alive connection carries every HTTP request of a round, so
  // the server runs a single connection thread beside the engine's.
  std::optional<HttpServer> server;
  std::optional<HttpClient> client;
  if (in.http_queries()) {
    server.emplace(&router, HttpServerOptions{});
    server->Start();
  }
  service.Start();
  while (!service.registry().Read(kInProcessSlot)) std::this_thread::yield();
  if (in.http_queries()) {
    client.emplace("127.0.0.1", server->port());
    ++r.attempted;
    const HttpClient::Response health = client->Get("/healthz");
    if (!health.ok || health.status != 200) fail("healthz failed");
  }
  r.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;

  Reader reader;
  reader.router = &router;
  if (client) reader.client = &*client;

  // ---- timed section: feeder + reader until ingest_done -----------------
  const size_t batches = (in.stream.size() + kBatch - 1) / kBatch;
  std::vector<int64_t> ack_ns(batches, 0);  // when each push/POST returned
  std::vector<size_t> positions;            // snapshot position per read
  std::atomic<bool> stop_reader{false};
  uint64_t reader_failed = 0;
  std::string reader_failure;
  std::string read_body;

  const int64_t start = NowNs();
  // Reads the next target of the reader's deck, due at `due`.
  auto read_next = [&](int64_t due) {
    const size_t i = r.reads.size();
    const std::string& target = in.reader_targets[i % in.reader_targets.size()];
    Scheduled s;
    s.due_ns = due - start;
    s.sent_ns = NowNs() - start;
    s.ok = reader.Get(target, &read_body, tracer, i + 1);
    s.recv_ns = NowNs() - start;
    if (!s.ok && reader_failure.empty()) {
      reader_failure = target + " answered " + read_body.substr(0, 120);
    }
    reader_failed += s.ok ? 0 : 1;
    r.reads.push_back(s);
    positions.push_back(s.ok ? ReadPosition(read_body) : 0);
  };
  // The open-loop reader of the in-process-ingest workloads. HTTP ingest
  // probes inline instead, on the same connection (see kProbesPerPost).
  std::optional<std::thread> reader_thread;
  if (!in.http_ingest()) {
    reader_thread.emplace([&] {
      while (!stop_reader.load(std::memory_order_acquire)) {
        const int64_t due = start + DueNs(r.reads.size(), in.reader_rate);
        while (NowNs() < due) {
          if (stop_reader.load(std::memory_order_acquire)) return;
          const int64_t left = due - NowNs();
          if (left > 60000) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(left - 50000));
          }
        }
        read_next(due);
      }
    });
  }

  {
    Span ingest_span(tracer, "ingest", round_span.id());
    for (size_t b = 0; b < batches; ++b) {
      const size_t at = b * kBatch;
      const size_t n = std::min(kBatch, in.stream.size() - at);
      ++r.attempted;
      if (in.http_ingest()) {
        {
          Span span(tracer, "http.post_ingest", ingest_span.id());
          const HttpClient::Response response =
              client->Post("/ingest", in.bodies[b]);
          if (!response.ok || response.status != 200) {
            fail("POST /ingest: " + std::to_string(response.status) + " " +
                 response.error);
          }
        }
        ack_ns[b] = NowNs();
        for (int k = 0; k < kProbesPerPost; ++k) read_next(NowNs());
      } else {
        Span span(tracer, "service.push", ingest_span.id());
        if (service.Push(in.stream.data() + at, n) != n) fail("short push");
        ack_ns[b] = NowNs();
      }
    }
    ++r.attempted;
    if (in.http_ingest()) {
      const HttpClient::Response closed = client->Post("/ingest/close", "");
      if (!closed.ok || closed.status != 200) fail("POST /ingest/close failed");
    } else {
      service.CloseIngest();
    }
    while (!service.ingest_done()) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    r.ingest_s = static_cast<double>(NowNs() - start) / 1e9;
  }
  stop_reader.store(true, std::memory_order_release);
  if (reader_thread) reader_thread->join();

  r.attempted += r.reads.size();
  r.failed += reader_failed;
  if (!reader_failure.empty() && r.first_failure.empty()) {
    r.first_failure = reader_failure;
  }
  if (!service.ingest_error().empty()) fail("ingest error: " + service.ingest_error());

  // Freshness: receive time minus the return of the Push (or POST) that
  // accepted the last tuple the answer covers.
  for (size_t i = 0; i < r.reads.size(); ++i) {
    const size_t position = positions[i];
    if (!r.reads[i].ok || position == 0) continue;  // nothing ingested yet
    const size_t b = (position - 1) / kBatch;
    if (b >= batches) continue;
    r.freshness_ms.push_back(
        static_cast<double>(start + r.reads[i].recv_ns - ack_ns[b]) / 1e6);
  }

  // ---- correctness: final answers byte-identical to offline -------------
  std::string body;
  for (int pass = -1; pass < kSealedPasses; ++pass) {
    for (const Check& check : in.checks) {
      ++r.attempted;
      const int64_t sent = NowNs();
      const bool ok = reader.Get(check.target, &body, tracer, 0);
      if (pass >= 0) {
        r.sealed_us.push_back(
            ok ? static_cast<double>(NowNs() - sent) / 1e3
               : std::numeric_limits<double>::infinity());
      }
      if (!ok) {
        fail(check.target + " answered " + body.substr(0, 120));
      } else if (body != check.expected) {
        fail(check.target + " differs from offline:\n  online:  " + body +
             "\n  offline: " + check.expected);
      }
    }
  }

  if (server) server->Stop();
  service.Stop();
  return r;
}

}  // namespace perfbench
