// lint:allow-file(raw-atomic-confined): signal-handler stop flag — a
// sig_atomic_t-style std::atomic<bool> flipped from a SIGINT handler; real
// OS signal delivery, nothing the model checker can interleave.
#include "tools/serve.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/data/zipf.h"
#include "src/prng/xi.h"
#include "src/sketch/serialize.h"
#include "src/service/chaos.h"
#include "src/service/server.h"
#include "src/service/service.h"
#include "src/stream/checkpoint.h"
#include "src/stream/faults.h"
#include "src/stream/shed_controller.h"
#include "src/util/flags.h"
#include "src/util/rng.h"
#include "tools/cli.h"

namespace sketchsample {
namespace cli {
namespace {

// ---------------------------------------------------------------------------
// Shared flag surface: `serve` and `offline` accept the same engine
// configuration, which is what makes their outputs comparable bit for bit.
// ---------------------------------------------------------------------------

void DefineEngineFlags(Flags& flags) {
  flags.Define("buckets", "5000", "F-AGMS buckets per row");
  flags.Define("rows", "1", "F-AGMS rows");
  flags.Define("scheme", "eh3", "xi scheme");
  flags.Define("seed", "1", "sketch seed");
  flags.Define("shards", "1", "worker lanes of the ingest engine");
  flags.Define("shed-p", "1", "initial Bernoulli keep-probability");
  flags.Define("shed-seed", "7", "positional shed randomness seed");
  flags.Define("shed-budget", "0",
               "adaptive: kept-tuple budget per window (deterministic)");
  flags.Define("shed-target-tps", "0",
               "adaptive: wall-clock kept-tuples/sec target "
               "(nondeterministic; shed-budget takes precedence)");
  flags.Define("shed-window", "8192", "controller window in offered tuples");
  flags.Define("min-p", "0.05", "adaptive floor for the shed rate");
  flags.Define("distinct-k", "0",
               "auxiliary KMV distinct counter size (0 = disabled)");
  flags.Define("quantile-k", "0",
               "KLL quantile sketch parameter (0 = /query/quantile disabled)");
  flags.Define("subpop-k", "0",
               "keyed bottom-k subpopulation sketch size "
               "(0 = /query/subpop disabled)");
  flags.Define("snapshot-every", "8192",
               "publish a query snapshot every N routed tuples");
  flags.Define("checkpoint-every", "0",
               "checkpoint period in tuples (0 = off)");
  flags.Define("checkpoint-out", "", "checkpoint file (atomically replaced)");
  flags.Define("resume", "", "checkpoint file to restore before ingesting");
  flags.Define("fault-profile", "none", "none | mild | harsh");
  flags.Define("fault-seed", "0",
               "fault seed (0: SKETCHSAMPLE_FAULT_SEED env or 77)");
  flags.Define("max-tuples", "0",
               "stop ingesting after this many tuples (0 = run to close; "
               "simulates a mid-stream kill for checkpoint testing)");
  flags.Define("join-sketch", "",
               "serialized F-AGMS file for /query/join (same shape/seed)");
  flags.Define("moments-f", "",
               "exact pre-shed moments of the stream, 'F1,F2,F3,F4' "
               "(empty: plug-in estimates)");
  flags.Define("moments-g", "",
               "exact moments of the join reference stream, 'G1,G2,G3,G4'");
  flags.Define("level", "0.95", "default confidence level");
  flags.Define("freshness-lag", "0",
               "stamp answers degraded when the snapshot trails ingest by "
               "more than this many tuples (0 = unbounded)");
}

void DefineStreamFlags(Flags& flags) {
  flags.Define("in", "", "dataset file to feed (empty: no file feed)");
  flags.Define("tuples", "0", "zipf feed: number of tuples (0 = no zipf)");
  flags.Define("domain", "100000", "zipf feed: domain size");
  flags.Define("skew", "1.0", "zipf feed: coefficient");
  flags.Define("source-seed", "1", "zipf feed: source seed");
}

std::optional<StreamMoments> MomentsFromFlag(const Flags& flags,
                                             const std::string& name) {
  if (flags.GetString(name).empty()) return std::nullopt;
  const std::vector<double> values = flags.GetDoubleList(name);
  if (values.size() != 4) {
    throw std::runtime_error("--" + name + " needs exactly four moments");
  }
  return StreamMoments{values[0], values[1], values[2], values[3]};
}

// Everything whose address the engine holds must outlive the service, so
// the setup owns controller, checkpoint sink, and fault profile alongside
// the options that point at them.
struct ServiceSetup {
  std::optional<ShedController> controller;
  std::optional<FileCheckpointSink> checkpoint_sink;
  FaultProfile fault_profile;
  uint64_t fault_seed = 0;
  SketchServiceOptions options;
};

ServiceSetup BuildServiceSetup(const Flags& flags) {
  ServiceSetup setup;
  SketchServiceOptions& opts = setup.options;

  opts.sketch.rows = static_cast<size_t>(flags.GetInt("rows"));
  opts.sketch.buckets = static_cast<size_t>(flags.GetInt("buckets"));
  opts.sketch.scheme = XiSchemeFromName(flags.GetString("scheme"));
  opts.sketch.seed = static_cast<uint64_t>(flags.GetInt("seed"));

  ShardEngineOptions& eopts = opts.engine;
  eopts.shards = static_cast<size_t>(flags.GetInt("shards"));
  eopts.shed_p = flags.GetDouble("shed-p");
  eopts.seed = static_cast<uint64_t>(flags.GetInt("shed-seed"));
  eopts.max_tuples = static_cast<uint64_t>(flags.GetInt("max-tuples"));
  eopts.distinct_k = static_cast<size_t>(flags.GetInt("distinct-k"));
  eopts.quantile_k = static_cast<size_t>(flags.GetInt("quantile-k"));
  eopts.subpop_k = static_cast<size_t>(flags.GetInt("subpop-k"));

  const double budget = flags.GetDouble("shed-budget");
  const double target_tps = flags.GetDouble("shed-target-tps");
  if (budget > 0.0 || target_tps > 0.0) {
    ShedControllerOptions copts;
    copts.initial_p = eopts.shed_p;
    copts.min_p = flags.GetDouble("min-p");
    copts.capacity_per_window = budget;
    copts.target_tps = target_tps;
    copts.window_tuples = static_cast<uint64_t>(flags.GetInt("shed-window"));
    setup.controller.emplace(copts);
    eopts.controller = &*setup.controller;
  }

  const std::string checkpoint_out = flags.GetString("checkpoint-out");
  const uint64_t checkpoint_every =
      static_cast<uint64_t>(flags.GetInt("checkpoint-every"));
  if (checkpoint_every > 0 && !checkpoint_out.empty()) {
    setup.checkpoint_sink.emplace(checkpoint_out);
    eopts.checkpoint_sink = &*setup.checkpoint_sink;
    eopts.checkpoint_every = checkpoint_every;
  }

  setup.fault_profile = FaultProfile::FromName(flags.GetString("fault-profile"));
  if (setup.fault_profile.Active()) {
    setup.fault_seed = static_cast<uint64_t>(flags.GetInt("fault-seed"));
    if (setup.fault_seed == 0) setup.fault_seed = FaultSeedFromEnv(77);
    eopts.fault_profile = &setup.fault_profile;
    eopts.fault_seed = setup.fault_seed;
  }

  opts.snapshot_every = static_cast<uint64_t>(flags.GetInt("snapshot-every"));
  opts.default_level = flags.GetDouble("level");
  opts.freshness_lag = static_cast<uint64_t>(flags.GetInt("freshness-lag"));
  const std::string join_sketch = flags.GetString("join-sketch");
  if (!join_sketch.empty()) opts.join_sketch = ReadBinaryFile(join_sketch);
  opts.moments_f = MomentsFromFlag(flags, "moments-f");
  opts.moments_g = MomentsFromFlag(flags, "moments-g");
  const std::string resume = flags.GetString("resume");
  if (!resume.empty()) opts.resume = ReadBinaryFile(resume);
  return setup;
}

std::vector<uint64_t> FeedValues(const Flags& flags) {
  if (!flags.GetString("in").empty()) {
    return ReadValuesFile(flags.GetString("in"));
  }
  const size_t tuples = static_cast<size_t>(flags.GetInt("tuples"));
  if (tuples == 0) return {};
  ZipfSampler sampler(static_cast<size_t>(flags.GetInt("domain")),
                      flags.GetDouble("skew"));
  Xoshiro256 rng(static_cast<uint64_t>(flags.GetInt("source-seed")));
  return sampler.Stream(tuples, rng);
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

std::atomic<bool> g_stop{false};

void StopSignalHandler(int) { g_stop.store(true, std::memory_order_relaxed); }

// Pushes `values` into the service, paced to `rate` tuples/sec (0 = full
// speed). Push blocks on backpressure, so an unpaced feed still cannot
// outrun the engine by more than the push buffer.
void FeedService(SketchService& service, const std::vector<uint64_t>& values,
                 double rate, bool close_after) {
  const auto start = std::chrono::steady_clock::now();
  size_t sent = 0;
  const size_t batch = 4096;
  while (sent < values.size() && !g_stop.load(std::memory_order_relaxed)) {
    const size_t n = std::min(batch, values.size() - sent);
    const size_t accepted = service.Push(values.data() + sent, n);
    sent += accepted;
    if (accepted < n) break;  // ingest closed under us
    if (rate > 0.0) {
      const auto due =
          start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(static_cast<double>(sent) /
                                                    rate));
      std::this_thread::sleep_until(due);
    }
  }
  if (close_after) service.CloseIngest();
}

int RunServe(const Flags& flags) {
  ServiceSetup setup = BuildServiceSetup(flags);
  SketchService service(setup.options);

  Router router;
  service.Register(router);

  // Server-socket chaos for resilience drills: deterministic partial
  // reads/writes, resets, and delays injected under the given profile.
  std::optional<ScopedChaosInjector> chaos;
  const ChaosProfile chaos_profile =
      ChaosProfile::FromName(flags.GetString("chaos-profile"));
  if (chaos_profile.Active()) {
    uint64_t chaos_seed = static_cast<uint64_t>(flags.GetInt("chaos-seed"));
    if (chaos_seed == 0) chaos_seed = ChaosSeedFromEnv(77);
    chaos.emplace(chaos_profile, chaos_seed);
    std::fprintf(stderr, "serve: chaos profile %s seed %llu\n",
                 flags.GetString("chaos-profile").c_str(),
                 static_cast<unsigned long long>(chaos_seed));
  }

  HttpServerOptions sopts;
  sopts.bind_address = flags.GetString("bind");
  sopts.port = static_cast<int>(flags.GetInt("port"));
  sopts.max_connections = static_cast<size_t>(flags.GetInt("max-connections"));
  sopts.recv_timeout_ms = static_cast<int>(flags.GetInt("recv-timeout-ms"));
  sopts.default_deadline_ms = static_cast<int>(flags.GetInt("deadline-ms"));
  sopts.max_deadline_ms = static_cast<int>(flags.GetInt("max-deadline-ms"));
  if (sopts.max_connections > setup.options.max_readers) {
    // Reader slots must cover every live connection (slot == connection).
    sopts.max_connections = setup.options.max_readers;
  }
  std::optional<AdmissionController> admission;
  const int admission_capacity =
      static_cast<int>(flags.GetInt("admission-capacity"));
  if (admission_capacity > 0) {
    AdmissionOptions aopts;
    aopts.capacity = static_cast<size_t>(admission_capacity);
    aopts.window_requests =
        static_cast<uint64_t>(flags.GetInt("admission-window"));
    aopts.min_admit = flags.GetDouble("admission-min");
    admission.emplace(aopts);
    sopts.admission = &*admission;
  }
  HttpServer server(&router, sopts);
  server.Start();
  service.Start();

  const std::string port_file = flags.GetString("port-file");
  if (!port_file.empty()) {
    WriteValuesFile(port_file, {static_cast<uint64_t>(server.port())});
  }
  std::printf("listening on %s:%d\n", sopts.bind_address.c_str(),
              server.port());
  std::fflush(stdout);

  std::signal(SIGINT, StopSignalHandler);
  std::signal(SIGTERM, StopSignalHandler);
  std::signal(SIGPIPE, SIG_IGN);

  std::thread feeder;
  const std::vector<uint64_t> values = FeedValues(flags);
  if (!values.empty()) {
    const double rate = flags.GetDouble("ingest-rate");
    const bool close_after = flags.GetBool("close-after-feed");
    feeder = std::thread(
        [&service, &values, rate, close_after] {
          FeedService(service, values, rate, close_after);
        });
  }

  const double run_seconds = flags.GetDouble("run-seconds");
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(run_seconds));
  while (!g_stop.load(std::memory_order_relaxed)) {
    if (run_seconds > 0 && std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Orderly shutdown: stop accepting queries, close ingest, join feeder.
  server.Stop();
  g_stop.store(true, std::memory_order_relaxed);
  service.Stop();
  if (feeder.joinable()) feeder.join();

  const HttpServerStats stats = server.stats();
  std::fprintf(stderr,
               "serve: %llu requests, %llu connections (%llu rejected), "
               "%llu admission rejects, %llu deadline expiries, "
               "%llu parse errors, %llu tuples ingested\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.connections_rejected),
               static_cast<unsigned long long>(stats.admission_rejected),
               static_cast<unsigned long long>(stats.deadline_exceeded),
               static_cast<unsigned long long>(stats.parse_errors),
               static_cast<unsigned long long>(service.pushed()));
  const std::string error = service.ingest_error();
  if (!error.empty()) {
    std::fprintf(stderr, "serve: ingest error: %s\n", error.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int CmdServe(int argc, char** argv) {
  Flags flags;
  flags.Define("bind", "127.0.0.1", "listen address");
  flags.Define("port", "0", "listen port (0 = ephemeral)");
  flags.Define("port-file", "",
               "write the bound port here (for scripts using --port=0)");
  flags.Define("max-connections", "64", "live connection cap");
  flags.Define("recv-timeout-ms", "10000", "idle connection timeout");
  flags.Define("deadline-ms", "5000",
               "per-request wall-clock budget across read/compute/write "
               "(0 = no deadlines)");
  flags.Define("max-deadline-ms", "30000",
               "cap for the client X-Deadline-Ms header");
  flags.Define("admission-capacity", "0",
               "AIMD admission controller inflight budget (0 = disabled)");
  flags.Define("admission-window", "128",
               "admission controller window in offered requests");
  flags.Define("admission-min", "0.05", "admission rate floor");
  flags.Define("chaos-profile", "none",
               "server-socket fault injection: none | mild | harsh");
  flags.Define("chaos-seed", "0",
               "chaos seed (0: SKETCHSAMPLE_CHAOS_SEED env or 77)");
  flags.Define("ingest-rate", "0",
               "file/zipf feed pacing in tuples/sec (0 = full speed)");
  flags.Define("close-after-feed", "true",
               "close ingest when the file/zipf feed ends");
  flags.Define("run-seconds", "0", "exit after this long (0 = until signal)");
  DefineStreamFlags(flags);
  DefineEngineFlags(flags);
  if (!flags.Parse(argc, argv)) return 1;
  return RunServe(flags);
}

// ---------------------------------------------------------------------------
// offline — the ground truth the service-smoke job diffs HTTP bodies
// against. Runs the identical SketchService (push source, shard engine,
// snapshot publication, answer writers) without a server, then prints
// each endpoint's exact JSON body:
//
//   selfjoin {...}
//   join {...}            (with --join-sketch)
//   point:<key> {...}     (per --keys entry)
//   distinct {...}        (with --distinct-k > 0)
//   quantile:<q> {...}    (per --quantiles entry, with --quantile-k > 0)
//   subpop:<filter> {...} (per --subpop-filters entry, with --subpop-k > 0)
// ---------------------------------------------------------------------------

int CmdOffline(int argc, char** argv) {
  Flags flags;
  flags.Define("keys", "", "comma-separated keys for point-query lines");
  flags.Define("quantiles", "",
               "comma-separated ranks in [0, 1] for quantile-query lines");
  flags.Define("subpop-filters", "",
               "semicolon-separated kind:a-b filters for subpop-query lines");
  DefineStreamFlags(flags);
  DefineEngineFlags(flags);
  if (!flags.Parse(argc, argv)) return 1;

  ServiceSetup setup = BuildServiceSetup(flags);
  SketchService service(setup.options);
  service.Start();

  const std::vector<uint64_t> values = FeedValues(flags);
  if (values.empty()) {
    std::fprintf(stderr, "offline: need --in or --tuples to feed\n");
    return 1;
  }
  size_t sent = 0;
  while (sent < values.size()) {
    sent += service.Push(values.data() + sent,
                         std::min<size_t>(4096, values.size() - sent));
  }
  service.CloseIngest();
  while (!service.ingest_done()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::string error = service.ingest_error();
  if (!error.empty()) {
    std::fprintf(stderr, "offline: ingest error: %s\n", error.c_str());
    return 1;
  }

  auto guard = service.registry().Read(0);
  if (!guard) {
    std::fprintf(stderr, "offline: no snapshot published\n");
    return 1;
  }
  const double level = setup.options.default_level;
  // Same freshness context as the sealed online service: all pushed tuples
  // are covered by the final snapshot, so staleness is 0 and degraded is
  // false — matching bytes with online answers on the same state.
  QueryFreshness fresh;
  fresh.pushed = service.pushed();
  fresh.freshness_lag = setup.options.freshness_lag;
  std::printf("selfjoin %s",
              SelfJoinAnswer(*guard, setup.options.moments_f, level, fresh)
                  .c_str());
  if (!setup.options.join_sketch.empty()) {
    const FagmsSketch reference =
        DeserializeFagms(setup.options.join_sketch);
    const ResolvedMoments g =
        ResolveJoinMoments(reference, setup.options.moments_g);
    std::printf("join %s",
                JoinAnswer(*guard, reference, setup.options.moments_f, g,
                           level, fresh)
                    .c_str());
  }
  for (const int64_t key : flags.GetIntList("keys")) {
    std::printf("point:%llu %s", static_cast<unsigned long long>(key),
                PointAnswer(*guard, static_cast<uint64_t>(key),
                            setup.options.moments_f, level, fresh)
                    .c_str());
  }
  if (guard->distinct.has_value()) {
    std::printf("distinct %s", DistinctAnswer(*guard, level, fresh).c_str());
  }
  const std::string quantiles = flags.GetString("quantiles");
  if (!quantiles.empty()) {
    if (!guard->quantile.has_value()) {
      std::fprintf(stderr, "offline: --quantiles needs --quantile-k > 0\n");
      return 1;
    }
    size_t start = 0;
    while (start < quantiles.size()) {
      const size_t comma = quantiles.find(',', start);
      const size_t end =
          comma == std::string::npos ? quantiles.size() : comma;
      const std::string token = quantiles.substr(start, end - start);
      char* parse_end = nullptr;
      const double q = std::strtod(token.c_str(), &parse_end);
      if (token.empty() || parse_end == nullptr || *parse_end != '\0' ||
          !std::isfinite(q) || q < 0.0 || q > 1.0) {
        std::fprintf(stderr,
                     "offline: --quantiles entry '%s' is not in [0, 1]\n",
                     token.c_str());
        return 1;
      }
      std::printf("quantile:%s %s", token.c_str(),
                  QuantileAnswer(*guard, q, level, fresh).c_str());
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  const std::string filters = flags.GetString("subpop-filters");
  if (!filters.empty()) {
    if (!guard->subpop.has_value()) {
      std::fprintf(stderr, "offline: --subpop-filters needs --subpop-k > 0\n");
      return 1;
    }
    size_t start = 0;
    while (start < filters.size()) {
      const size_t semi = filters.find(';', start);
      const size_t end = semi == std::string::npos ? filters.size() : semi;
      const std::string token = filters.substr(start, end - start);
      SubpopPredicate pred;
      try {
        pred = ParseSubpopFilter(token);
      } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "offline: --subpop-filters entry '%s': %s\n",
                     token.c_str(), error.what());
        return 1;
      }
      std::printf("subpop:%s %s", pred.ToString().c_str(),
                  SubpopAnswer(*guard, pred, level, fresh).c_str());
      if (semi == std::string::npos) break;
      start = semi + 1;
    }
  }
  return 0;
}

}  // namespace cli
}  // namespace sketchsample
