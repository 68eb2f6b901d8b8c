// Service-path benchmark: query latency of the full query-serving stack
// (src/service/) — ShardEngine with phase-locked snapshot publication →
// RcuCell → HTTP server → hardened parser → JSON answers — measured over
// real loopback sockets with loadgen's keep-alive client. Ingest
// throughput, and queries racing ingest, are perfbench's workloads
// (perfbench/README.md); this bench keeps the two phases nothing else
// measures, each its own report point:
//
//   phase=query           req/sec + p50/p90/p99 latency of the query mix
//                         against a sealed snapshot (ingest closed). Any
//                         error fails the bench (exit 1).
//   phase=overload        8× query threads against an admission-controlled,
//                         deadline-enforcing server: goodput and
//                         admitted-only tail latency while shedding, gated
//                         against phase=query by bench/rules/
//                         bench_service.json.
//
// The bench gate consumes the report: updates_per_sec points aggregate
// into the duration-weighted query throughput, and every *_latency_ns
// metric gates per point (tools/gate.h).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/report.h"
#include "src/data/zipf.h"
#include "src/service/admission.h"
#include "src/service/client.h"
#include "src/service/server.h"
#include "src/service/service.h"
#include "src/util/flags.h"
#include "src/util/rng.h"
#include "src/util/table.h"

namespace sketchsample {
namespace {

struct QueryPhaseResult {
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t admitted = 0;  // 200s; the latency percentiles cover only these
  uint64_t shed = 0;      // 429/503/408 — admission or deadline rejects
  double seconds = 0;
  uint64_t p50_ns = 0, p90_ns = 0, p99_ns = 0;
  double qps() const {
    return seconds > 0 ? static_cast<double>(requests) / seconds : 0;
  }
  double goodput() const {
    return seconds > 0 ? static_cast<double>(admitted) / seconds : 0;
  }
};

uint64_t PercentileNs(const std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t idx = std::min(
      sorted.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted.size())));
  return sorted[idx];
}

// Rotates selfjoin / point / distinct GETs for `seconds` against `port`,
// one keep-alive connection per thread.
QueryPhaseResult RunQueryPhase(int port, int threads, double seconds,
                               uint64_t key_domain, uint64_t seed) {
  std::vector<std::vector<uint64_t>> latencies(
      static_cast<size_t>(threads));
  std::vector<uint64_t> requests(static_cast<size_t>(threads), 0);
  std::vector<uint64_t> errors(static_cast<size_t>(threads), 0);
  std::vector<uint64_t> admitted(static_cast<size_t>(threads), 0);
  std::vector<uint64_t> shed(static_cast<size_t>(threads), 0);
  std::vector<std::thread> workers;
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      HttpClient client("127.0.0.1", port);
      Xoshiro256 rng(MixSeed(seed, static_cast<uint64_t>(t)));
      auto& lat = latencies[static_cast<size_t>(t)];
      lat.reserve(1 << 16);
      const auto deadline =
          start + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(seconds));
      while (std::chrono::steady_clock::now() < deadline) {
        std::string target;
        switch (rng() % 4) {
          case 0:
            target = "/query/selfjoin";
            break;
          case 1:
          case 2:
            target = "/query/point?key=" + std::to_string(rng() % key_domain);
            break;
          default:
            target = "/query/distinct";
            break;
        }
        const auto t0 = std::chrono::steady_clock::now();
        const HttpClient::Response response = client.Get(target);
        const auto dt = std::chrono::steady_clock::now() - t0;
        ++requests[static_cast<size_t>(t)];
        if (response.ok && response.status == 200) {
          ++admitted[static_cast<size_t>(t)];
          // Admitted-only latency: a fast 429 must not flatter the tail.
          lat.push_back(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                  .count()));
        } else if (response.ok && (response.status == 429 ||
                                   response.status == 503 ||
                                   response.status == 408)) {
          ++shed[static_cast<size_t>(t)];
        } else {
          ++errors[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  QueryPhaseResult result;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::vector<uint64_t> all;
  for (size_t t = 0; t < latencies.size(); ++t) {
    result.requests += requests[t];
    result.errors += errors[t];
    result.admitted += admitted[t];
    result.shed += shed[t];
    all.insert(all.end(), latencies[t].begin(), latencies[t].end());
  }
  std::sort(all.begin(), all.end());
  result.p50_ns = PercentileNs(all, 0.50);
  result.p90_ns = PercentileNs(all, 0.90);
  result.p99_ns = PercentileNs(all, 0.99);
  return result;
}

// Pushes the whole stream, closes ingest and waits until the engine has
// sealed its final snapshot.
void IngestAll(SketchService& service, const std::vector<uint64_t>& stream) {
  size_t sent = 0;
  while (sent < stream.size()) {
    sent += service.Push(stream.data() + sent,
                         std::min<size_t>(4096, stream.size() - sent));
  }
  service.CloseIngest();
  while (!service.ingest_done()) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

SketchServiceOptions ServiceOptions(const Flags& flags) {
  SketchServiceOptions options;
  options.sketch.buckets = static_cast<size_t>(flags.GetInt("buckets"));
  options.sketch.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  options.engine.shards = static_cast<size_t>(flags.GetInt("shards"));
  options.engine.shed_p = flags.GetDouble("shed_p");
  options.engine.seed = MixSeed(flags.GetInt("seed"), 0x5eed);
  options.engine.distinct_k = static_cast<size_t>(flags.GetInt("distinct_k"));
  options.snapshot_every =
      static_cast<uint64_t>(flags.GetInt("snapshot_every"));
  return options;
}

int Main(int argc, char** argv) {
  Flags flags;
  flags.Define("tuples", "200000", "stream ingested before each phase");
  flags.Define("domain", "100000", "zipf domain (also the point-key domain)");
  flags.Define("skew", "1.0", "zipf coefficient");
  flags.Define("buckets", "5000", "F-AGMS buckets");
  flags.Define("seed", "20090402", "master seed");
  flags.Define("threads", "2", "query worker threads");
  flags.Define("seconds", "1", "duration of each query phase");
  flags.Define("shards", "2", "engine worker lanes");
  flags.Define("shed_p", "0.1", "Bernoulli keep-probability");
  flags.Define("distinct_k", "1024", "KMV distinct counter size");
  flags.Define("snapshot_every", "8192", "snapshot publication period");
  bench::DefineReportFlags(flags, "bench_service");
  if (!flags.Parse(argc, argv)) return 1;
  bench::ApplyMetricsFlag(flags);

  const uint64_t tuples = static_cast<uint64_t>(flags.GetInt("tuples"));
  const uint64_t domain = static_cast<uint64_t>(flags.GetInt("domain"));
  const int threads = static_cast<int>(flags.GetInt("threads"));
  const double seconds = flags.GetDouble("seconds");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));

  ZipfSampler sampler(static_cast<size_t>(domain), flags.GetDouble("skew"));
  Xoshiro256 rng(MixSeed(seed, 0x5ca1e));
  const std::vector<uint64_t> stream =
      sampler.Stream(static_cast<size_t>(tuples), rng);

  bench::BenchReport report("bench_service");
  report.SetConfig("tuples", static_cast<double>(tuples));
  report.SetConfig("domain", static_cast<double>(domain));
  report.SetConfig("threads", static_cast<double>(threads));
  report.SetConfig("seconds", seconds);
  report.SetConfig("shards", flags.GetDouble("shards"));
  report.SetConfig("shed_p", flags.GetDouble("shed_p"));

  TablePrinter table({"phase", "req/s", "p50 ns", "p99 ns", "errors"});

  // ---- phase=query --------------------------------------------------------
  uint64_t query_errors = 0;
  {
    SketchService service(ServiceOptions(flags));
    Router router;
    service.Register(router);
    HttpServer server(&router, HttpServerOptions{});
    server.Start();
    service.Start();
    IngestAll(service, stream);
    const QueryPhaseResult result = RunQueryPhase(
        server.port(), threads, seconds, domain, MixSeed(seed, 0xbeef));
    query_errors = result.errors;
    report.AddPoint()
        .Label("phase", "query")
        .Metric("updates_per_sec", result.qps())
        .Metric("seconds", result.seconds)
        .Metric("requests", static_cast<double>(result.requests))
        .Metric("errors", static_cast<double>(result.errors))
        .Metric("p50_latency_ns", static_cast<double>(result.p50_ns))
        .Metric("p90_latency_ns", static_cast<double>(result.p90_ns))
        .Metric("p99_latency_ns", static_cast<double>(result.p99_ns));
    table.AddRow({0, result.qps(), static_cast<double>(result.p50_ns),
                  static_cast<double>(result.p99_ns),
                  static_cast<double>(result.errors)});
    server.Stop();
    service.Stop();
  }

  // ---- phase=overload -----------------------------------------------------
  // 8× the query-phase thread count against an admission-controlled server
  // with deadlines on: the resilience claim, measured. Goodput (admitted
  // req/sec) and admitted-only p99 are gated by bench/rules/
  // bench_service.json against the healthy phase=query point — overload may
  // shed, but admitted work must stay fast and nonzero.
  {
    SketchService service(ServiceOptions(flags));
    Router router;
    service.Register(router);
    AdmissionOptions aopts;
    aopts.capacity = static_cast<size_t>(std::max(threads, 1));
    AdmissionController admission(aopts);
    HttpServerOptions sopts;
    sopts.default_deadline_ms = 2000;
    sopts.admission = &admission;
    HttpServer server(&router, sopts);
    server.Start();
    service.Start();
    IngestAll(service, stream);
    const QueryPhaseResult result = RunQueryPhase(
        server.port(), threads * 8, seconds, domain, MixSeed(seed, 0xfade));
    report.AddPoint()
        .Label("phase", "overload")
        .Label("side", "admitted")
        .Metric("updates_per_sec", result.goodput())
        .Metric("seconds", result.seconds)
        .Metric("requests", static_cast<double>(result.requests))
        .Metric("admitted", static_cast<double>(result.admitted))
        .Metric("shed", static_cast<double>(result.shed))
        .Metric("errors", static_cast<double>(result.errors))
        .Metric("p50_latency_ns", static_cast<double>(result.p50_ns))
        .Metric("p90_latency_ns", static_cast<double>(result.p90_ns))
        .Metric("p99_latency_ns", static_cast<double>(result.p99_ns));
    table.AddRow({1, result.goodput(), static_cast<double>(result.p50_ns),
                  static_cast<double>(result.p99_ns),
                  static_cast<double>(result.errors)});
    server.Stop();
    service.Stop();
  }

  std::printf(
      "Service-path queries (phase 0=query 1=overload goodput; see file "
      "comment)\n");
  table.Print();
  if (!report.WriteFile(bench::ReportPathFromFlags(flags))) return 1;
  if (query_errors > 0) {
    std::fprintf(stderr,
                 "bench_service: the healthy query phase reported %llu "
                 "error(s)\n",
                 static_cast<unsigned long long>(query_errors));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sketchsample

int main(int argc, char** argv) { return sketchsample::Main(argc, argv); }
