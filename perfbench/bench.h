// Shared configuration and types of the service benchmark driver.
//
// Every workload drives the serving path through the library's public
// functions only: SketchService::Push, HttpClient, HttpRequestParser,
// Router::Dispatch, the *ResponseJson builders, ShardEngine::Run,
// PositionalBernoulliSampler::KeepBatch and the sketches' Update calls.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/trace.h"
#include "src/service/http.h"
#include "src/service/service.h"

namespace perfbench {

using sketchsample::HttpRequest;
using sketchsample::ServiceSnapshot;
using sketchsample::SketchServiceOptions;

enum class Workload { kIngestP10, kIngestHttpP100, kQueryMixed };

// Common configuration (the benchmark's contract; see README.md).
inline constexpr size_t kDomain = 100000;
inline constexpr double kSkew = 1.0;
inline constexpr size_t kBatch = 4096;  ///< tuples per Push call / POST body
/// Reader rates. The ingest workloads run a light probe that observes
/// freshness, on the cheapest endpoint so that it takes little CPU from
/// ingest: open loop on ingest_p10, and on ingest_http_p100 inline after
/// each POST on the ingest connection, which keeps that workload to one
/// connection thread beside the engine's three. query_mixed runs the full
/// mix open loop.
inline constexpr double kProbeRate = 2000.0;
inline constexpr int kProbesPerPost = 2;
inline constexpr double kMixRate = 4000.0;
/// Closed-loop passes over the final-answer checks after ingest closes: one
/// untimed pass that warms the read path, then timed ones. Every pass is
/// checked against offline; on the ingest workloads the timed passes also
/// give query latency on the sealed snapshot (280 per round, so a p90 has
/// 28 samples beyond it).
inline constexpr int kSealedPasses = 20;
/// RcuCell slot of in-process readers: above the HTTP server's 64
/// connection slots, below the service's 128 reader slots.
inline constexpr size_t kInProcessSlot = 100;
/// Rounds a run must time, and the share of --seconds they must cover,
/// before its figures are reported.
inline constexpr int kMinRounds = 5;
inline constexpr double kMinTimedShare = 0.5;

struct Config {
  Workload workload = Workload::kIngestP10;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< span file of a traced run (empty: none)
};

/// One final answer checked against the offline reference.
struct Check {
  std::string target;
  std::string expected;
};

/// Everything generated before any timing starts.
struct Inputs {
  Workload workload = Workload::kIngestP10;
  SketchServiceOptions options;
  std::vector<uint64_t> stream;
  std::vector<std::string> bodies;  ///< text bodies of kBatch tuples (HTTP)
  std::vector<std::string> reader_targets;  ///< open-loop schedule targets
  double reader_rate = kProbeRate;
  std::vector<Check> checks;
  double exact_f2 = 0;
  double selfjoin_estimate = 0;  ///< offline corrected estimate
  std::unique_ptr<ServiceSnapshot> sealed;  ///< offline final snapshot

  bool http_ingest() const { return workload == Workload::kIngestHttpP100; }
  bool http_queries() const { return workload != Workload::kIngestP10; }
};

/// What one timed round of a workload measured.
struct RoundResult {
  double setup_s = 0;
  double ingest_s = 0;
  std::vector<Scheduled> reads;   ///< open-loop requests
  std::vector<double> freshness_ms;
  std::vector<double> sealed_us;  ///< closed-loop final-answer latencies
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
};

/// Builds the stream, bodies, schedule targets and offline reference.
Inputs MakeInputs(Workload workload, uint64_t seed);

/// One round: set up a fresh service, ingest the stream with the reader
/// running, check the final answers kSealedPasses times, tear down. `tracer` records spans
/// around every call into the service when non-null.
RoundResult RunRound(const Inputs& inputs, Tracer* tracer);

/// Per-layer metrics of a traced run (ladder rungs, counts, overhead).
std::map<std::string, double> RunLadder(const Inputs& inputs,
                                        double e2e_ns_per_tuple,
                                        Tracer* tracer,
                                        std::vector<std::string>* notes);

/// Parses an HTTP request from raw bytes (benchmark inputs only; throws on
/// a malformed request).
HttpRequest ParseRequestBytes(const std::string& bytes);
std::string GetRequestBytes(const std::string& target);
std::string PostRequestBytes(const std::string& target,
                             const std::string& body);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
