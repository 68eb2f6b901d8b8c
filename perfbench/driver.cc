// Service benchmark driver.
//
//   perfbench_driver --workload <ingest_p10|ingest_http_p100|query_mixed>
//                    --seed <n> --seconds <s> --trace <0|1> [--trace-out F]
//
// Untraced (--trace 0): one warm-up round, then timed rounds until --seconds
// have passed; prints every end-to-end metric. Traced (--trace 1): rounds
// alternate between traced and untraced to measure the tracing overhead,
// then the ingest and query ladders give the per-layer metrics. The last
// line of standard output is one JSON object: correct, attempted, failed,
// metrics. Exit codes: 0 ok, 1 wrong answers or failed operations, 2 usage,
// 3 a run too short to report.
#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/bench.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// Figures of a set of rounds. ingest_tps is the tuples of all rounds over
// their summed ingest time. Each timing percentile is taken per round, and
// every round's sample must support it; the run reports the mean over
// rounds with the lowest and highest fifth dropped (kRoundTrim). Round
// figures are bimodal on a 4-CPU host: where the scheduler puts the router
// thread beside the spinning lane workers moves a round's rate, and with it
// its freshness, by about 20%. A median over rounds jumps between the two
// modes from run to run; these figures follow the share of rounds in each.
// Query latency is bounded at p90: on a saturated 4-CPU host its p99 sits
// where scheduler stalls begin and moves by a quarter or more from run to
// run (README.md), so p99 and p99.9 are printed with their sample counts
// but not reported as metrics. On the ingest workloads query latency is
// that of the closed-loop final answers on the sealed snapshot; their
// probe only observes freshness.
constexpr double kRoundTrim = 0.2;

struct Pooled {
  bool open_loop_latency = false;
  std::vector<double> tps, setup_s, latency_us, late_us, freshness_ms;
  std::vector<double> lat_p50, lat_p90, fresh_p50, fresh_p99;
  uint64_t attempted = 0, failed = 0;
  std::string first_failure;
  double tuples = 0;
  double timed_s = 0;
  size_t unsupported_rounds = 0;  // rounds too small for their percentiles

  void Add(const RoundResult& r, size_t round_tuples) {
    tps.push_back(static_cast<double>(round_tuples) / r.ingest_s);
    setup_s.push_back(r.setup_s);
    std::vector<double> lat =
        open_loop_latency ? LatenciesUs(r.reads) : r.sealed_us;
    latency_us.insert(latency_us.end(), lat.begin(), lat.end());
    const std::vector<double> late = LatenessUs(r.reads);
    late_us.insert(late_us.end(), late.begin(), late.end());
    freshness_ms.insert(freshness_ms.end(), r.freshness_ms.begin(),
                        r.freshness_ms.end());
    std::vector<double> fresh = r.freshness_ms;
    std::sort(lat.begin(), lat.end());
    std::sort(fresh.begin(), fresh.end());
    if (SupportsPercentile(lat.size(), 0.9) &&
        SupportsPercentile(fresh.size(), 0.99)) {
      lat_p50.push_back(Percentile(lat, 0.5));
      lat_p90.push_back(Percentile(lat, 0.9));
      fresh_p50.push_back(Percentile(fresh, 0.5));
      fresh_p99.push_back(Percentile(fresh, 0.99));
    } else {
      ++unsupported_rounds;
    }
    std::fprintf(stderr,
                 "round: %.0f tuples/s, %zu queries, p50 %.1f us p90 %.1f us, "
                 "freshness p50 %.2f ms p99 %.2f ms, setup %.6f s\n",
                 tps.back(), lat.size(),
                 lat.empty() ? 0.0 : Percentile(lat, 0.5),
                 lat.empty() ? 0.0 : Percentile(lat, 0.9),
                 fresh.empty() ? 0.0 : Percentile(fresh, 0.5),
                 fresh.empty() ? 0.0 : Percentile(fresh, 0.99), r.setup_s);
    AddCounts(r);
    tuples += static_cast<double>(round_tuples);
    timed_s += r.ingest_s;
  }
  double Tps() const { return tuples / timed_s; }
  void AddCounts(const RoundResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    if (first_failure.empty()) first_failure = r.first_failure;
  }
};

// Prints the sample count and every percentile up to the highest the sample
// supports.
void Describe(const char* name, std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::optional<double> top =
      HighestSupported(values.size(), {0.5, 0.9, 0.99, 0.999});
  if (values.empty()) {
    std::printf("%-18s n=0\n", name);
  } else if (top) {
    std::string line = "n=" + std::to_string(values.size());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      if (q > *top) break;
      line += "  p" + Num(q * 100) + "=" + Num(Percentile(values, q));
    }
    std::printf("%-18s %s (highest supported p%s)\n", name, line.c_str(),
                Num(*top * 100).c_str());
  } else {
    std::printf("%-18s n=%zu  no percentile supported\n", name, values.size());
  }
}

// The peak RSS of one timed round. Input generation and the offline
// reference run peak well above a round, so the process's lifetime mark
// (getrusage's ru_maxrss) would hide any growth of the service; the kernel's
// mark is reset before each round instead.
void ResetPeakRss() {
  malloc_trim(0);  // a round starts from the same resident heap as the last
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  const bool ok = f != nullptr && std::fputs("5", f) >= 0;
  if (f == nullptr || std::fclose(f) != 0 || !ok) {
    throw std::runtime_error("cannot reset the peak RSS mark "
                             "(/proc/self/clear_refs)");
  }
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib <= 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return static_cast<double>(kib) / 1024.0;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// Unit of each per-layer metric (BENCHMARK.json lists the same).
const char* LayerUnit(const std::string& name) {
  if (name == "stream.kept_ratio" || name == "trace_overhead_frac" ||
      name == "core.selfjoin_rel_err" || name == "stream.ring_full_per_chunk") {
    return "ratio";
  }
  if (name == "stream.snapshots" || name == "stream.quiesces" ||
      name == "stream.quantile_folds") {
    return "count";
  }
  if (name.size() > 3 && name.compare(name.size() - 3, 3, "_us") == 0) return "us";
  if (name.find("_us_") != std::string::npos) return "us";
  return "ns";
}

int Run(const Config& cfg) {
  std::fprintf(stderr, "perfbench: generating inputs for %s, seed %llu\n",
               cfg.workload_name.c_str(),
               static_cast<unsigned long long>(cfg.seed));
  const Inputs in = MakeInputs(cfg.workload, cfg.seed);
  const size_t tuples = in.stream.size();
  const double rel_err =
      std::abs(in.selfjoin_estimate - in.exact_f2) / in.exact_f2;

  Pooled warm;
  warm.open_loop_latency = cfg.workload == Workload::kQueryMixed;
  warm.AddCounts(RunRound(in, nullptr));  // warm-up: counted, not timed

  if (!cfg.trace) {
    Pooled p = warm;
    std::vector<double> peak_rss_mb;
    const int64_t begin = NowNs();
    int rounds = 0;
    while (rounds < kMinRounds ||
           static_cast<double>(NowNs() - begin) / 1e9 < cfg.seconds) {
      // Resident memory creeps up by a fraction of a MiB per round, so the
      // peak is sampled on the first rounds only: the figure must not
      // depend on how many rounds a run fits.
      const bool sample_rss = rounds < kMinRounds;
      if (sample_rss) ResetPeakRss();
      p.Add(RunRound(in, nullptr), tuples);
      if (sample_rss) peak_rss_mb.push_back(PeakRssMb());
      ++rounds;
    }
    std::printf("workload %s seed %llu: %d rounds of %zu tuples, %.3f s timed\n",
                cfg.workload_name.c_str(),
                static_cast<unsigned long long>(cfg.seed), rounds, tuples,
                p.timed_s);
    Describe("query_us", p.latency_us);
    Describe("freshness_ms", p.freshness_ms);
    Describe("loadgen_late_us", p.late_us);
    Describe("ingest_tps", p.tps);
    Describe("setup_s", p.setup_s);
    const double failed_frac =
        static_cast<double>(p.failed) / static_cast<double>(p.attempted);
    std::printf("failed_frac %s (%llu of %llu operations)\n",
                Num(failed_frac).c_str(),
                static_cast<unsigned long long>(p.failed),
                static_cast<unsigned long long>(p.attempted));
    std::printf("selfjoin_rel_err %s (exact F2 %s)\n", Num(rel_err).c_str(),
                Num(in.exact_f2).c_str());
    if (!p.first_failure.empty()) {
      std::printf("first failure: %s\n", p.first_failure.c_str());
    }
    if (p.timed_s < kMinTimedShare * cfg.seconds || p.unsupported_rounds > 0) {
      std::fprintf(stderr,
                   "perfbench: run too short to report (%.3f s timed of "
                   "%.3f s asked; %zu rounds had too few samples for a "
                   "percentile, which needs %zu samples beyond it)\n",
                   p.timed_s, cfg.seconds, p.unsupported_rounds,
                   kSamplesBeyond);
      return 3;
    }
    const std::vector<Metric> metrics = {
        {"ingest_tps", p.Tps(), "tuples/s"},
        {"query_p50_us", TrimmedMean(p.lat_p50, kRoundTrim), "us"},
        {"query_p90_us", TrimmedMean(p.lat_p90, kRoundTrim), "us"},
        {"freshness_p50_ms", TrimmedMean(p.fresh_p50, kRoundTrim), "ms"},
        {"freshness_p99_ms", TrimmedMean(p.fresh_p99, kRoundTrim), "ms"},
        {"setup_s", Median(p.setup_s), "s"},
        {"peak_rss_mb", Median(peak_rss_mb), "MiB"},
    };
    for (const Metric& m : metrics) {
      std::printf("%-18s %s %s\n", m.name.c_str(), Num(m.value).c_str(), m.unit);
    }
    const bool correct = p.failed == 0;
    PrintResult(correct, p.attempted, p.failed, metrics);
    return correct ? 0 : 1;
  }

  // ---- traced run -------------------------------------------------------
  Tracer tracer;
  Pooled traced, untraced;
  traced.open_loop_latency = untraced.open_loop_latency = warm.open_loop_latency;
  const int64_t begin = NowNs();
  int rounds = 0;
  while (rounds < 2 * kMinRounds ||
         static_cast<double>(NowNs() - begin) / 1e9 < 0.4 * cfg.seconds) {
    const bool on = rounds % 2 == 1;
    (on ? traced : untraced).Add(RunRound(in, on ? &tracer : nullptr), tuples);
    ++rounds;
  }
  const double tps_off = untraced.Tps();
  const double tps_on = traced.Tps();
  std::vector<std::string> notes;
  std::map<std::string, double> layers =
      RunLadder(in, 1e9 / tps_off, &tracer, &notes);
  layers["trace_overhead_frac"] = 1.0 - tps_on / tps_off;
  layers["core.selfjoin_rel_err"] = rel_err;
  std::vector<double> late = untraced.late_us;
  std::sort(late.begin(), late.end());
  const std::optional<double> top = HighestSupported(late.size(), {0.5, 0.9, 0.99});
  if (!top) {
    notes.push_back("loadgen.late_p99_us: no percentile supported");
  } else if (*top < 0.99) {
    notes.push_back("loadgen.late_p99_us: p99 unsupported, reporting p" +
                    Num(*top * 100));
  }
  layers["loadgen.late_p99_us"] = top ? Percentile(late, *top) : 0.0;

  std::printf("workload %s seed %llu traced: %d rounds, tps untraced %s "
              "traced %s\n",
              cfg.workload_name.c_str(),
              static_cast<unsigned long long>(cfg.seed), rounds,
              Num(tps_off).c_str(), Num(tps_on).c_str());
  for (const std::string& note : notes) std::printf("%s\n", note.c_str());
  std::vector<Metric> metrics;
  for (const auto& [name, value] : layers) {
    std::printf("%-40s %s %s\n", name.c_str(), Num(value).c_str(),
                LayerUnit(name));
    metrics.push_back({name, value, LayerUnit(name)});
  }
  if (!cfg.trace_out.empty() && !tracer.WriteJsonLines(cfg.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", cfg.trace_out.c_str());
  }
  const uint64_t attempted = warm.attempted + traced.attempted + untraced.attempted;
  const uint64_t failed = warm.failed + traced.failed + untraced.failed;
  std::string first = warm.first_failure;
  if (first.empty()) first = untraced.first_failure;
  if (first.empty()) first = traced.first_failure;
  if (!first.empty()) std::printf("first failure: %s\n", first.c_str());
  PrintResult(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "<ingest_p10|ingest_http_p100|query_mixed> --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        cfg.workload_name = value;
        have_workload = true;
        if (value == "ingest_p10") {
          cfg.workload = Workload::kIngestP10;
        } else if (value == "ingest_http_p100") {
          cfg.workload = Workload::kIngestHttpP100;
        } else if (value == "query_mixed") {
          cfg.workload = Workload::kQueryMixed;
        } else {
          return Usage();
        }
      } else if (flag == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (flag == "--trace") {
        cfg.trace = value == "1";
      } else if (flag == "--trace-out") {
        cfg.trace_out = value;
      } else {
        return Usage();
      }
    } catch (const std::exception&) {
      return Usage();
    }
  }
  if (!have_workload || argc % 2 == 0 || !(cfg.seconds > 0)) return Usage();
  try {
    return Run(cfg);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
