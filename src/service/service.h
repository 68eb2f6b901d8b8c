// The query-serving sketch service: wraps ShardEngine<FagmsSketch> in a
// long-running process with HTTP endpoints, following SF-sketch's
// fat-ingest / slim-query split.
//
//   * Ingest path ("fat"): HTTP POST /ingest (or a CLI feeder) pushes
//     tuples into a blocking PushSource; one ingest thread runs the shard
//     engine over it — positional shedding, adaptive control, fault
//     injection, and checkpointing all work exactly as in offline runs.
//   * Query path ("slim"): at phase-locked quiesce boundaries the engine
//     publishes an immutable merged-sketch snapshot into an RcuCell
//     (src/service/snapshot.h); query handlers borrow it wait-free and
//     answer from the snapshot alone. Queries never touch the write path.
//
// Every estimate endpoint returns the Prop 13/14-corrected estimate at the
// realized rate p̂ = kept/position plus its Eq 25/26 CLT interval. The
// interval needs the pre-shedding frequency moments ("known in experiments,
// estimated in production" — src/stream/shed_controller.h); callers may
// supply exact moments, otherwise the service substitutes conservative
// plug-in moments derived from its own estimates (documented in
// docs/SERVICE.md; the `moments` response field says which was used).
//
// Bit-exactness: because shedding is positional and the distinct counter's
// seed derives from the root seed, the response payload for a given
// (configuration, stream prefix) is byte-identical to what `sketchsample
// offline` computes from the same data — the answer writers below are
// the single code path both sides use, and the service-smoke CI job holds
// them to exact equality.
#ifndef SKETCHSAMPLE_SERVICE_SERVICE_H_
#define SKETCHSAMPLE_SERVICE_SERVICE_H_

#include "src/util/atomics_policy.h"
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/core/subpop_estimators.h"
#include "src/service/push_source.h"
#include "src/service/router.h"
#include "src/service/snapshot.h"
#include "src/stream/shard_engine.h"
#include "src/util/json.h"

namespace sketchsample {

/// First four frequency moments (Σf, Σf², Σf³, Σf⁴) of a pre-shedding
/// stream, for evaluating the Eq 25/26 variances exactly.
struct StreamMoments {
  double m1 = 0;
  double m2 = 0;
  double m3 = 0;
  double m4 = 0;
};

/// Four moments resolved for an Eq 25/26 interval: exact when the operator
/// supplied them, a plug-in extrapolation otherwise.
struct ResolvedMoments {
  double m1 = 0;
  double m2 = 0;
  double m3 = 0;
  double m4 = 0;
  bool exact = false;
};

/// One immutable published view: the engine's snapshot, by value, exactly
/// as the engine cut it.
using ServiceSnapshot = ShardEngineSnapshot<FagmsSketch>;

/// Query-time freshness context for degraded-mode stamping. Every answer
/// carries `staleness` (tuples ingested but not yet covered by the snapshot
/// it was computed from) and a `degraded` flag; the estimate itself stays
/// Prop 13/14-corrected on the snapshot either way — degraded marks *stale
/// or shed service*, never a different computation. Offline runs pass the
/// same struct (with the final pushed count), so the shared-builder
/// byte-identity contract holds: at a sealed final state both sides compute
/// staleness 0 and degraded false.
struct QueryFreshness {
  /// Tuples accepted into the ingest source so far.
  uint64_t pushed = 0;
  /// Ingest thread exited (engine stop or error) while ingest was open.
  bool ingest_stalled = false;
  /// The admission controller is shedding or at its inflight cap.
  bool admission_saturated = false;
  /// Staleness bound in tuples; beyond it the answer is degraded
  /// (0 = unbounded — staleness alone never degrades).
  uint64_t freshness_lag = 0;
};

/// Tuples ingested beyond the snapshot's covered prefix.
inline uint64_t SnapshotStaleness(const ServiceSnapshot& snapshot,
                                  const QueryFreshness& fresh) {
  return fresh.pushed > snapshot.position ? fresh.pushed - snapshot.position
                                          : 0;
}

/// True when an answer from `snapshot` must be stamped degraded.
inline bool DegradedAnswer(const ServiceSnapshot& snapshot,
                           const QueryFreshness& fresh) {
  return fresh.admission_saturated || fresh.ingest_stalled ||
         (fresh.freshness_lag > 0 &&
          SnapshotStaleness(snapshot, fresh) > fresh.freshness_lag);
}

struct SketchServiceOptions {
  /// F-AGMS prototype shape (rows medianed, buckets averaged → n = buckets
  /// in the Eq 25/26 variances).
  SketchParams sketch;
  /// Engine configuration: shards, shed_p, root seed, controller,
  /// checkpointing, distinct_k, fault profile — all exactly as offline.
  ShardEngineOptions engine;
  /// Publish cadence in routed tuples (phase-locked to absolute offsets;
  /// 0 = publish only when ingest ends). Queries lag ingest by at most this
  /// many tuples — the price of never locking the write path.
  uint64_t snapshot_every = 8192;
  /// Confidence level when a query does not pass ?level=.
  double default_level = 0.95;
  /// RcuCell reader slots; must cover the HTTP server's max_connections
  /// plus any in-process readers.
  size_t max_readers = 128;
  /// PushSource bound (tuples buffered before POST /ingest blocks). Under
  /// saturating ingest the buffer stays full, so it sets how far answers
  /// trail ingest: staleness <= push_buffer + engine.chunk_tuples +
  /// snapshot_every tuples, about push_buffer ÷ ingest rate in time. The
  /// default is the smallest size that cost no throughput in the service
  /// benchmark (docs/SERVICE.md §5).
  size_t push_buffer = size_t{1} << 16;
  /// Serialized reference FagmsSketch for /query/join (empty = endpoint
  /// answers 400). Must be compatible with `sketch`.
  std::vector<uint8_t> join_sketch;
  /// Exact pre-shed moments of the ingested stream (f) and the join
  /// reference stream (g); plug-in estimates are used when absent.
  std::optional<StreamMoments> moments_f;
  std::optional<StreamMoments> moments_g;
  /// Serialized checkpoint to restore before ingesting (kill-and-resume);
  /// the producer must re-push the stream from the beginning — restore
  /// fast-forwards past the checkpointed prefix.
  std::vector<uint8_t> resume;
  /// Degrade answers whose snapshot trails ingest by more than this many
  /// tuples (0 = staleness alone never degrades). While the engine runs
  /// and publishes, staleness stays within push_buffer +
  /// engine.chunk_tuples + snapshot_every even under saturating ingest; a
  /// smaller lag also flags answers served under saturation
  /// (docs/SERVICE.md §5).
  uint64_t freshness_lag = 0;
};

/// Long-running sketch service. Lifecycle: construct → Register(router) →
/// start HTTP server → Start() → (ingest/queries) → Stop().
class SketchService {
 public:
  /// Validates options (throws std::invalid_argument on a bad join sketch
  /// or level) and publishes the initial empty snapshot.
  explicit SketchService(const SketchServiceOptions& options);
  ~SketchService();

  SketchService(const SketchService&) = delete;
  SketchService& operator=(const SketchService&) = delete;

  /// Registers every endpoint on `router` (handlers owned by the service).
  void Register(Router& router);

  /// Starts the ingest thread: restores from options.resume when set, then
  /// runs the engine over the push source until CloseIngest (or engine
  /// max_tuples). Once the engine stops, for whatever reason, the thread
  /// sets ingest_done() and keeps draining the source, discarding what it
  /// reads, until ingest closes: producers never block on a buffer nobody
  /// consumes, and answers carry the degraded stamp meanwhile.
  void Start();

  /// Closes ingest, joins the ingest thread. Idempotent.
  void Stop();

  /// Direct feeders (CLI file mode, tests) — same stream as POST /ingest.
  size_t Push(const uint64_t* values, size_t n);
  void CloseIngest();

  /// Snapshot registry; tests and in-process probes read with a slot >=
  /// the HTTP server's max_connections to avoid colliding with it.
  RcuCell<ServiceSnapshot>& registry() { return registry_; }

  bool ingest_done() const {
    return ingest_done_.load(MemOrder::kAcquire);
  }
  /// Non-empty when the ingest thread died on an exception.
  std::string ingest_error() const;
  uint64_t pushed() const { return source_.pushed(); }

  const SketchServiceOptions& options() const { return options_; }

 private:
  enum class Endpoint;
  class Handler;
  class Publisher;

  void IngestMain();
  // Publishes a sequence-0 snapshot straight from engine state (initial
  // empty state; restored state after a resume).
  void PublishEngineState();
  HttpResponse Handle(Endpoint endpoint, const HttpRequest& request,
                      const RequestContext& context);
  HttpResponse HandleIngest(const HttpRequest& request);
  HttpResponse HandleStats(const RequestContext& context);
  // Freshness context for a query answered now under `context`.
  QueryFreshness CurrentFreshness(const RequestContext& context) const;

  SketchServiceOptions options_;
  std::optional<FagmsSketch> reference_;  // /query/join right-hand side
  ResolvedMoments reference_moments_;     // its g-side moments
  RcuCell<ServiceSnapshot> registry_;
  PushSource source_;
  std::unique_ptr<Publisher> publisher_;
  std::unique_ptr<ShardEngine<FagmsSketch>> engine_;
  std::vector<std::unique_ptr<Handler>> handlers_;

  std::thread ingest_thread_;
  StdAtomics::Atomic<bool> ingest_done_{false};
  bool started_ = false;
  mutable std::mutex error_mutex_;
  std::string ingest_error_;

  // Exactly-once ingest chunks: per-session next expected sequence number
  // (X-Ingest-Session / X-Ingest-Seq). The mutex spans parse+push for
  // sequenced batches so a session's chunks apply in order exactly once;
  // unsequenced posts bypass it entirely.
  std::mutex ingest_mutex_;
  std::map<uint64_t, uint64_t> ingest_next_seq_;

  StdAtomics::Atomic<uint64_t> queries_selfjoin_{0};
  StdAtomics::Atomic<uint64_t> queries_join_{0};
  StdAtomics::Atomic<uint64_t> queries_point_{0};
  StdAtomics::Atomic<uint64_t> queries_distinct_{0};
  StdAtomics::Atomic<uint64_t> queries_quantile_{0};
  StdAtomics::Atomic<uint64_t> queries_subpop_{0};
  StdAtomics::Atomic<uint64_t> degraded_answers_{0};
  StdAtomics::Atomic<uint64_t> deadline_rejected_{0};
  StdAtomics::Atomic<uint64_t> ingest_duplicates_{0};
};

// ---------------------------------------------------------------------------
// Answer writers — the shared online/offline code path. Each returns the
// exact body of the corresponding endpoint (compact JSON and a newline; see
// docs/SERVICE.md for the schema), written in one pass from the snapshot
// with JsonWriter (src/util/json.h): no JsonValue tree in between.
// ---------------------------------------------------------------------------

std::string SelfJoinAnswer(const ServiceSnapshot& snapshot,
                           const std::optional<StreamMoments>& moments_f,
                           double level,
                           const QueryFreshness& fresh = QueryFreshness());
/// `g` holds the reference's moments from ResolveJoinMoments.
std::string JoinAnswer(const ServiceSnapshot& snapshot,
                       const FagmsSketch& reference,
                       const std::optional<StreamMoments>& moments_f,
                       const ResolvedMoments& g, double level,
                       const QueryFreshness& fresh = QueryFreshness());
/// The g-side moments of a join reference: `exact` when supplied, else a
/// plug-in from the reference's self-join estimate. That estimate scans
/// the whole reference, so resolve once per reference, not per answer.
ResolvedMoments ResolveJoinMoments(const FagmsSketch& reference,
                                   const std::optional<StreamMoments>& exact);
std::string PointAnswer(const ServiceSnapshot& snapshot, uint64_t key,
                        const std::optional<StreamMoments>& moments_f,
                        double level,
                        const QueryFreshness& fresh = QueryFreshness());
std::string DistinctAnswer(const ServiceSnapshot& snapshot, double level,
                           const QueryFreshness& fresh = QueryFreshness());
/// Quantile answer at rank q in [0, 1]. Requires snapshot.quantile; the
/// rank-error report splits the KLL compaction term from the
/// Bernoulli-sampling CLT term at the realized p̂, and the value-space
/// interval re-queries the sketch at q ∓ ε_total.
std::string QuantileAnswer(const ServiceSnapshot& snapshot, double q,
                           double level,
                           const QueryFreshness& fresh = QueryFreshness());
/// Subpopulation-weight answer for `pred`. Requires snapshot.subpop.
std::string SubpopAnswer(const ServiceSnapshot& snapshot,
                         const SubpopPredicate& pred, double level,
                         const QueryFreshness& fresh = QueryFreshness());

// The same answers as JsonValue trees, for callers that read fields: each
// is JsonValue::Parse of the written body, and Dump of it prints the body
// without its newline.
JsonValue SelfJoinResponseJson(const ServiceSnapshot& snapshot,
                               const std::optional<StreamMoments>& moments_f,
                               double level,
                               const QueryFreshness& fresh = QueryFreshness());
JsonValue JoinResponseJson(const ServiceSnapshot& snapshot,
                           const FagmsSketch& reference,
                           const std::optional<StreamMoments>& moments_f,
                           const ResolvedMoments& g, double level,
                           const QueryFreshness& fresh = QueryFreshness());
/// The same answer for a one-off query: resolves `moments_g` first.
JsonValue JoinResponseJson(const ServiceSnapshot& snapshot,
                           const FagmsSketch& reference,
                           const std::optional<StreamMoments>& moments_f,
                           const std::optional<StreamMoments>& moments_g,
                           double level,
                           const QueryFreshness& fresh = QueryFreshness());
JsonValue PointResponseJson(const ServiceSnapshot& snapshot, uint64_t key,
                            const std::optional<StreamMoments>& moments_f,
                            double level,
                            const QueryFreshness& fresh = QueryFreshness());
JsonValue DistinctResponseJson(const ServiceSnapshot& snapshot, double level,
                               const QueryFreshness& fresh = QueryFreshness());
JsonValue QuantileResponseJson(const ServiceSnapshot& snapshot, double q,
                               double level,
                               const QueryFreshness& fresh = QueryFreshness());
JsonValue SubpopResponseJson(const ServiceSnapshot& snapshot,
                             const SubpopPredicate& pred, double level,
                             const QueryFreshness& fresh = QueryFreshness());

/// Strict decimal uint64 parse (no sign, no whitespace, no overflow).
bool ParseUint64(std::string_view text, uint64_t* out);

}  // namespace sketchsample

#endif  // SKETCHSAMPLE_SERVICE_SERVICE_H_
