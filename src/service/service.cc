#include "src/service/service.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "src/core/confidence.h"
#include "src/data/frequency_vector.h"
#include "src/service/admission.h"
#include "src/util/metrics.h"

namespace sketchsample {

namespace {

// Four moments, resolved: exact when the operator supplied them, otherwise
// a plug-in extrapolation from what the service can observe.
struct Moments4 {
  double m1 = 0, m2 = 0, m3 = 0, m4 = 0;
  bool exact = false;
};

// Plug-in f-moments at query time: m1 = position (the pre-shed count is
// known exactly — every tuple passes the router), m2 = the corrected
// self-join estimate clamped to >= m1 (F2 >= F1 holds for any integer
// frequency vector), and m3/m4 by the power-mean extrapolation that takes
// the Cauchy–Schwarz lower bounds F3 >= F2²/F1 and F4 >= F3²/F2 with
// equality. Exactly right for uniform frequencies, a documented
// approximation otherwise (docs/SERVICE.md#confidence-intervals).
Moments4 ResolveMoments(const std::optional<StreamMoments>& exact,
                        double count, double square_estimate) {
  if (exact.has_value()) {
    return {exact->m1, exact->m2, exact->m3, exact->m4, true};
  }
  Moments4 m;
  m.m1 = std::max(count, 0.0);
  if (m.m1 <= 0.0) return m;
  m.m2 = std::max(square_estimate, m.m1);
  m.m3 = m.m2 * m.m2 / m.m1;
  m.m4 = m.m2 > 0.0 ? m.m3 * m.m3 / m.m2 : 0.0;
  return m;
}

void SetCommonFields(JsonValue& body, const char* endpoint,
                     const ServiceSnapshot& snapshot,
                     const QueryFreshness& fresh) {
  body.Set("endpoint", JsonValue::String(endpoint));
  body.Set("position", JsonValue::Number(static_cast<double>(snapshot.position)));
  body.Set("kept", JsonValue::Number(static_cast<double>(snapshot.kept)));
  body.Set("sequence", JsonValue::Number(static_cast<double>(snapshot.sequence)));
  body.Set("p", JsonValue::Number(snapshot.p));
  body.Set("realized_p", JsonValue::Number(snapshot.realized_p()));
  // Degraded-mode stamping: how far the snapshot trails ingest, and whether
  // the answer was served under stale/shed conditions. Same code path
  // online and offline, so byte-identity is preserved (both compute 0 /
  // false at a sealed final state).
  body.Set("staleness", JsonValue::Number(static_cast<double>(
                            SnapshotStaleness(snapshot, fresh))));
  body.Set("degraded", JsonValue::Bool(DegradedAnswer(snapshot, fresh)));
}

void SetInterval(JsonValue& body, const ConfidenceInterval& ci) {
  JsonValue interval = JsonValue::Object();
  interval.Set("low", JsonValue::Number(ci.low));
  interval.Set("high", JsonValue::Number(ci.high));
  interval.Set("level", JsonValue::Number(ci.level));
  body.Set("ci", std::move(interval));
}

}  // namespace

bool ParseUint64(std::string_view text, uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

JsonValue SelfJoinResponseJson(const ServiceSnapshot& snapshot,
                               const std::optional<StreamMoments>& moments_f,
                               double level, const QueryFreshness& fresh) {
  const double raw = snapshot.sketch.EstimateSelfJoin();
  const double p = snapshot.realized_p();
  const double estimate =
      p > 0.0 ? RealizedSelfJoinEstimate(raw, p, snapshot.kept) : 0.0;
  const Moments4 f = ResolveMoments(
      moments_f, static_cast<double>(snapshot.position), estimate);
  JoinStatistics stats;
  stats.f1 = f.m1;
  stats.f2 = f.m2;
  stats.f3 = f.m3;
  stats.f4 = f.m4;
  const ConfidenceInterval ci =
      p > 0.0 ? RealizedSelfJoinInterval(estimate, stats, p,
                                         snapshot.sketch.buckets(), level)
              : ConfidenceInterval{0.0, 0.0, level};
  JsonValue body = JsonValue::Object();
  SetCommonFields(body, "selfjoin", snapshot, fresh);
  body.Set("estimate", JsonValue::Number(estimate));
  body.Set("raw", JsonValue::Number(raw));
  SetInterval(body, ci);
  body.Set("n", JsonValue::Number(static_cast<double>(snapshot.sketch.buckets())));
  body.Set("moments", JsonValue::String(f.exact ? "exact" : "plugin"));
  return body;
}

JsonValue JoinResponseJson(const ServiceSnapshot& snapshot,
                           const FagmsSketch& reference,
                           const std::optional<StreamMoments>& moments_f,
                           const std::optional<StreamMoments>& moments_g,
                           double level, const QueryFreshness& fresh) {
  const double raw = snapshot.sketch.EstimateJoin(reference);
  const double p = snapshot.realized_p();
  // The reference sketch summarizes an unsampled relation: q̂ = 1.
  const double estimate = p > 0.0 ? RealizedJoinEstimate(raw, p, 1.0) : 0.0;
  const double self_raw = snapshot.sketch.EstimateSelfJoin();
  const double f2_estimate =
      p > 0.0 ? RealizedSelfJoinEstimate(self_raw, p, snapshot.kept) : 0.0;
  const Moments4 f = ResolveMoments(
      moments_f, static_cast<double>(snapshot.position), f2_estimate);
  // g-side plug-in: only g2 is observable from the reference sketch. g1 =
  // sqrt(g2) is its Cauchy–Schwarz lower bound; higher moments extrapolate
  // as for f.
  Moments4 g;
  if (moments_g.has_value()) {
    g = {moments_g->m1, moments_g->m2, moments_g->m3, moments_g->m4, true};
  } else {
    g.m2 = std::max(reference.EstimateSelfJoin(), 0.0);
    g.m1 = std::sqrt(g.m2);
    g.m3 = g.m1 > 0.0 ? g.m2 * g.m2 / g.m1 : 0.0;
    g.m4 = g.m2 > 0.0 ? g.m3 * g.m3 / g.m2 : 0.0;
  }
  JoinStatistics stats;
  stats.f1 = f.m1;
  stats.f2 = f.m2;
  stats.f3 = f.m3;
  stats.f4 = f.m4;
  stats.g1 = g.m1;
  stats.g2 = g.m2;
  stats.g3 = g.m3;
  stats.g4 = g.m4;
  // Cross moments are never observable from the sketches alone; plug in
  // the join estimate itself and scale by mean frequencies.
  const double fg = std::max(estimate, 0.0);
  stats.fg = fg;
  stats.fg2 = g.m1 > 0.0 ? fg * (g.m2 / g.m1) : 0.0;
  stats.f2g = f.m1 > 0.0 ? fg * (f.m2 / f.m1) : 0.0;
  stats.f2g2 = (f.m1 > 0.0 && g.m1 > 0.0)
                   ? fg * (f.m2 / f.m1) * (g.m2 / g.m1)
                   : 0.0;
  const ConfidenceInterval ci =
      p > 0.0 ? RealizedJoinInterval(estimate, stats, p, 1.0,
                                     snapshot.sketch.buckets(), level)
              : ConfidenceInterval{0.0, 0.0, level};
  JsonValue body = JsonValue::Object();
  SetCommonFields(body, "join", snapshot, fresh);
  body.Set("estimate", JsonValue::Number(estimate));
  body.Set("raw", JsonValue::Number(raw));
  SetInterval(body, ci);
  body.Set("n", JsonValue::Number(static_cast<double>(snapshot.sketch.buckets())));
  body.Set("moments",
           JsonValue::String(f.exact && g.exact ? "exact" : "plugin"));
  return body;
}

JsonValue PointResponseJson(const ServiceSnapshot& snapshot, uint64_t key,
                            const std::optional<StreamMoments>& moments_f,
                            double level, const QueryFreshness& fresh) {
  const double raw = snapshot.sketch.EstimateFrequency(key);
  const double p = snapshot.realized_p();
  const double estimate = p > 0.0 ? RealizedJoinEstimate(raw, p, 1.0) : 0.0;
  const double self_raw = snapshot.sketch.EstimateSelfJoin();
  const double f2_estimate =
      p > 0.0 ? RealizedSelfJoinEstimate(self_raw, p, snapshot.kept) : 0.0;
  const Moments4 f = ResolveMoments(
      moments_f, static_cast<double>(snapshot.position), f2_estimate);
  // A point query is a size-of-join against the singleton relation {key}:
  // g1 = g2 = g3 = g4 = 1 exactly (Prop 13 with q = 1).
  JoinStatistics stats;
  stats.f1 = f.m1;
  stats.f2 = f.m2;
  stats.f3 = f.m3;
  stats.f4 = f.m4;
  stats.g1 = stats.g2 = stats.g3 = stats.g4 = 1.0;
  const double fg = std::max(estimate, 0.0);
  stats.fg = fg;
  stats.fg2 = fg;
  stats.f2g = f.m1 > 0.0 ? fg * (f.m2 / f.m1) : 0.0;
  stats.f2g2 = stats.f2g;
  const ConfidenceInterval ci =
      p > 0.0 ? RealizedJoinInterval(estimate, stats, p, 1.0,
                                     snapshot.sketch.buckets(), level)
              : ConfidenceInterval{0.0, 0.0, level};
  JsonValue body = JsonValue::Object();
  SetCommonFields(body, "point", snapshot, fresh);
  body.Set("key", JsonValue::Number(static_cast<double>(key)));
  body.Set("estimate", JsonValue::Number(estimate));
  body.Set("raw", JsonValue::Number(raw));
  SetInterval(body, ci);
  body.Set("n", JsonValue::Number(static_cast<double>(snapshot.sketch.buckets())));
  body.Set("moments", JsonValue::String(f.exact ? "exact" : "plugin"));
  return body;
}

JsonValue DistinctResponseJson(const ServiceSnapshot& snapshot, double level,
                               const QueryFreshness& fresh) {
  const KmvSketch& kmv = *snapshot.distinct;
  const double estimate = kmv.EstimateDistinct();
  // While fewer than k distinct hashes are retained the count is exact;
  // saturated, the (k−1)/u estimator has relative standard error
  // ~1/sqrt(k−2), so Var ≈ estimate²/(k−2).
  ConfidenceInterval ci{estimate, estimate, level};
  if (kmv.retained() >= kmv.k() && kmv.k() > 2) {
    const double variance =
        estimate * estimate / static_cast<double>(kmv.k() - 2);
    ci = CltInterval(estimate, variance, level);
  }
  JsonValue body = JsonValue::Object();
  SetCommonFields(body, "distinct", snapshot, fresh);
  body.Set("estimate", JsonValue::Number(estimate));
  SetInterval(body, ci);
  body.Set("k", JsonValue::Number(static_cast<double>(kmv.k())));
  body.Set("retained", JsonValue::Number(static_cast<double>(kmv.retained())));
  // The counter sees the post-shed stream: this is the distinct count of
  // the *sampled* prefix, not an F0 estimate of the raw stream.
  body.Set("scope", JsonValue::String("sampled_stream"));
  return body;
}

JsonValue QuantileResponseJson(const ServiceSnapshot& snapshot, double q,
                               double level, const QueryFreshness& fresh) {
  const KllSketch& kll = *snapshot.quantile;
  JsonValue body = JsonValue::Object();
  SetCommonFields(body, "quantile", snapshot, fresh);
  body.Set("q", JsonValue::Number(q));
  double estimate = 0.0;
  double eps_sketch = 0.0;
  double eps_sampling = 0.0;
  ConfidenceInterval ci{0.0, 0.0, level};
  if (kll.n() > 0) {
    // Two rank-error sources stack: the KLL compaction error (variance
    // accumulated per compaction, src/sketch/kll.h) and the Bernoulli
    // shedding upstream of the sketch — the kept stream's q-quantile
    // estimates the full stream's with CLT rank noise
    // sqrt(q(1−q)(1−p̂)/(p̂·N)) at realized rate p̂ over N positions.
    const double z = NormalQuantile(0.5 * (1.0 + level));
    eps_sketch = z * kll.RankErrorStddev();
    const double p = snapshot.realized_p();
    if (p > 0.0 && p < 1.0 && snapshot.position > 0) {
      eps_sampling =
          z * std::sqrt(q * (1.0 - q) * (1.0 - p) /
                        (p * static_cast<double>(snapshot.position)));
    }
    const double eps_total = eps_sketch + eps_sampling;
    // Value-space interval: the sketch re-queried at the rank bounds, all
    // three ranks answered from one sorted view.
    const std::vector<uint64_t> values = kll.EstimateQuantiles(
        {q, std::max(0.0, q - eps_total), std::min(1.0, q + eps_total)});
    estimate = static_cast<double>(values[0]);
    ci.low = static_cast<double>(values[1]);
    ci.high = static_cast<double>(values[2]);
  }
  body.Set("estimate", JsonValue::Number(estimate));
  JsonValue rank_error = JsonValue::Object();
  rank_error.Set("sketch", JsonValue::Number(eps_sketch));
  rank_error.Set("sampling", JsonValue::Number(eps_sampling));
  rank_error.Set("total", JsonValue::Number(eps_sketch + eps_sampling));
  body.Set("rank_error", std::move(rank_error));
  SetInterval(body, ci);
  body.Set("k", JsonValue::Number(static_cast<double>(kll.k())));
  body.Set("retained", JsonValue::Number(static_cast<double>(kll.retained())));
  body.Set("compactions",
           JsonValue::Number(static_cast<double>(kll.compactions())));
  // Unlike /query/distinct, this answers about the *pre-shed* stream:
  // positional shedding preserves ranks in expectation, and the sampling
  // term above accounts for the residual rank noise.
  body.Set("scope", JsonValue::String("stream"));
  return body;
}

JsonValue SubpopResponseJson(const ServiceSnapshot& snapshot,
                             const SubpopPredicate& pred, double level,
                             const QueryFreshness& fresh) {
  const KeyedKmvSketch& kmv = *snapshot.subpop;
  JsonValue body = JsonValue::Object();
  SetCommonFields(body, "subpop", snapshot, fresh);
  body.Set("filter", JsonValue::String(pred.ToString()));
  const double p = snapshot.realized_p();
  SubpopEstimate est;
  if (snapshot.kept > 0 && p > 0.0) {
    est = EstimateSubpopulation(kmv, pred, p);
  } else {
    est.exact = true;  // empty sketch: the weight is exactly zero
  }
  body.Set("estimate", JsonValue::Number(est.estimate));
  body.Set("kept_estimate", JsonValue::Number(est.kept_estimate));
  JsonValue variance = JsonValue::Object();
  variance.Set("sketch", JsonValue::Number(est.sketch_variance));
  variance.Set("sampling", JsonValue::Number(est.sampling_variance));
  variance.Set("total", JsonValue::Number(est.variance));
  body.Set("variance", std::move(variance));
  SetInterval(body, SubpopInterval(est, level));
  body.Set("matched", JsonValue::Number(static_cast<double>(est.matched)));
  body.Set("sample_size",
           JsonValue::Number(static_cast<double>(est.sample_size)));
  body.Set("exact", JsonValue::Bool(est.exact));
  body.Set("k", JsonValue::Number(static_cast<double>(kmv.k())));
  body.Set("retained", JsonValue::Number(static_cast<double>(kmv.retained())));
  body.Set("scope", JsonValue::String("stream"));
  return body;
}

// ---------------------------------------------------------------------------
// SketchService
// ---------------------------------------------------------------------------

enum class SketchService::Endpoint {
  kSelfJoin,
  kJoin,
  kPoint,
  kDistinct,
  kQuantile,
  kSubpop,
  kStats,
  kIngest,
  kIngestClose,
  kHealth,
};

class SketchService::Handler final : public HttpHandler {
 public:
  Handler(SketchService* service, Endpoint endpoint)
      : service_(service), endpoint_(endpoint) {}
  HttpResponse Handle(const HttpRequest& request,
                      const RequestContext& context) override {
    return service_->Handle(endpoint_, request, context);
  }

 private:
  SketchService* service_;
  Endpoint endpoint_;
};

class SketchService::Publisher final : public ShardSnapshotHook<FagmsSketch> {
 public:
  explicit Publisher(RcuCell<ServiceSnapshot>* registry)
      : registry_(registry) {}
  void Publish(ShardEngineSnapshot<FagmsSketch> snapshot) override {
    auto view = std::make_unique<ServiceSnapshot>(ServiceSnapshot{
        std::move(snapshot.sketch), std::move(snapshot.distinct),
        std::move(snapshot.quantile), std::move(snapshot.subpop),
        snapshot.position, snapshot.kept, snapshot.sequence, snapshot.p});
    registry_->Publish(std::move(view));
    SKETCHSAMPLE_METRIC_INC("service.snapshots.published");
  }

 private:
  RcuCell<ServiceSnapshot>* registry_;
};

SketchService::SketchService(const SketchServiceOptions& options)
    : options_(options),
      registry_(options.max_readers == 0 ? 1 : options.max_readers),
      source_(options.push_buffer) {
  if (!(options_.default_level > 0.0 && options_.default_level < 1.0)) {
    throw std::invalid_argument("service default_level must be in (0, 1)");
  }
  // The engine owns the only prototype (moved in), so construction builds
  // three counter arrays: the engine's prototype and merged state, and the
  // initial snapshot.
  engine_ = std::make_unique<ShardEngine<FagmsSketch>>(
      FagmsSketch(options_.sketch), options_.engine);
  if (!options_.join_sketch.empty()) {
    reference_.emplace(DeserializeFagms(options_.join_sketch));
    if (!engine_->merged().CompatibleWith(*reference_)) {
      throw std::invalid_argument(
          "join reference sketch incompatible with the service sketch "
          "configuration (shape/scheme/seed must match)");
    }
  }
  publisher_ = std::make_unique<Publisher>(&registry_);
  engine_->SetSnapshotHook(publisher_.get(), options_.snapshot_every);
  PublishEngineState();
}

SketchService::~SketchService() { Stop(); }

void SketchService::PublishEngineState() {
  auto view = std::make_unique<ServiceSnapshot>(ServiceSnapshot{
      engine_->merged(), engine_->distinct(), engine_->quantile(),
      engine_->subpop(), engine_->total_seen(), engine_->total_kept(), 0,
      engine_->p()});
  registry_.Publish(std::move(view));
}

void SketchService::Register(Router& router) {
  const auto add = [&](const char* method, const char* path,
                       Endpoint endpoint) {
    handlers_.push_back(std::make_unique<Handler>(this, endpoint));
    router.Add(method, path, handlers_.back().get());
  };
  add("GET", "/query/selfjoin", Endpoint::kSelfJoin);
  add("GET", "/query/join", Endpoint::kJoin);
  add("GET", "/query/point", Endpoint::kPoint);
  add("GET", "/query/distinct", Endpoint::kDistinct);
  add("GET", "/query/quantile", Endpoint::kQuantile);
  add("GET", "/query/subpop", Endpoint::kSubpop);
  add("GET", "/stats", Endpoint::kStats);
  add("GET", "/healthz", Endpoint::kHealth);
  add("POST", "/ingest", Endpoint::kIngest);
  add("POST", "/ingest/close", Endpoint::kIngestClose);
}

void SketchService::Start() {
  if (started_) return;
  started_ = true;
  ingest_thread_ = std::thread([this] { IngestMain(); });
}

void SketchService::IngestMain() {
  try {
    if (!options_.resume.empty()) {
      const PipelineCheckpoint cp = DeserializeCheckpoint(options_.resume);
      // Blocks until the producer has re-pushed the checkpointed prefix
      // (the positional sampler makes the fast-forward bit-exact).
      engine_->Restore(cp, source_);
      PublishEngineState();
    }
    engine_->Run(source_);
  } catch (const std::exception& error) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    ingest_error_ = error.what();
    SKETCHSAMPLE_METRIC_INC("service.ingest.errors");
  }
  ingest_done_.store(true, MemOrder::kRelease);
  // The engine stopped (end of stream, max_tuples, stall death or an
  // error). Until ingest closes, keep the source moving so that producers
  // are acknowledged as before instead of blocking on a full buffer; the
  // tuples are dropped, and answers stay stamped degraded (ingest_stalled).
  DiscardTuples(source_, UINT64_MAX);
}

void SketchService::Stop() {
  if (!started_) return;
  CloseIngest();
  if (ingest_thread_.joinable()) ingest_thread_.join();
  started_ = false;
}

size_t SketchService::Push(const uint64_t* values, size_t n) {
  return source_.Push(values, n);
}

void SketchService::CloseIngest() { source_.Close(); }

std::string SketchService::ingest_error() const {
  std::lock_guard<std::mutex> lock(error_mutex_);
  return ingest_error_;
}

HttpResponse SketchService::HandleIngest(const HttpRequest& request) {
  if (source_.closed()) {
    return ErrorResponse(409, "ingest is closed");
  }
  // Sequenced chunk? X-Ingest-Session names a retry stream, X-Ingest-Seq
  // numbers its chunks from 0. A replayed chunk (seq < next) is acked as a
  // duplicate without re-pushing — that is what makes client retries of
  // ingest exactly-once. A gap (seq > next) is a client bug: 409.
  bool sequenced = false;
  uint64_t session = 0;
  uint64_t seq = 0;
  if (const auto it = request.headers.find("x-ingest-session");
      it != request.headers.end()) {
    if (!ParseUint64(it->second, &session)) {
      return ErrorResponse(400, "malformed X-Ingest-Session");
    }
    const auto seq_it = request.headers.find("x-ingest-seq");
    if (seq_it == request.headers.end() ||
        !ParseUint64(seq_it->second, &seq)) {
      return ErrorResponse(400,
                           "X-Ingest-Session requires a decimal X-Ingest-Seq");
    }
    sequenced = true;
  }
  // Body: whitespace-separated decimal tuples. Parsed strictly and fully
  // before anything is pushed — a malformed batch must not half-ingest.
  std::vector<uint64_t> values;
  values.reserve(256);
  const std::string_view body = request.body;
  size_t i = 0;
  while (i < body.size()) {
    while (i < body.size() &&
           (body[i] == ' ' || body[i] == '\n' || body[i] == '\t' ||
            body[i] == '\r')) {
      ++i;
    }
    if (i >= body.size()) break;
    const size_t start = i;
    while (i < body.size() && body[i] >= '0' && body[i] <= '9') ++i;
    uint64_t value = 0;
    if (i == start || !ParseUint64(body.substr(start, i - start), &value)) {
      return ErrorResponse(400, "malformed tuple at byte offset " +
                                    std::to_string(start));
    }
    if (i < body.size() && body[i] != ' ' && body[i] != '\n' &&
        body[i] != '\t' && body[i] != '\r') {
      return ErrorResponse(400, "malformed tuple at byte offset " +
                                    std::to_string(start));
    }
    values.push_back(value);
  }

  // The mutex spans the dedup check AND the push for sequenced chunks, so a
  // session's chunks enter the stream in order exactly once even when the
  // client retries concurrently. Sequenced ingest is therefore serialized;
  // unsequenced posts keep the lock-free path.
  std::unique_lock<std::mutex> dedup_lock;
  if (sequenced) {
    dedup_lock = std::unique_lock<std::mutex>(ingest_mutex_);
    auto it = ingest_next_seq_.find(session);
    if (it == ingest_next_seq_.end()) {
      if (ingest_next_seq_.size() >= 1024) {
        return ErrorResponse(503, "too many ingest sessions");
      }
      it = ingest_next_seq_.emplace(session, 0).first;
    }
    if (seq < it->second) {
      ingest_duplicates_.fetch_add(1, MemOrder::kRelaxed);
      SKETCHSAMPLE_METRIC_INC("service.ingest.duplicates");
      JsonValue response = JsonValue::Object();
      response.Set("accepted", JsonValue::Number(0.0));
      response.Set("pushed", JsonValue::Number(static_cast<double>(pushed())));
      response.Set("duplicate", JsonValue::Bool(true));
      return JsonResponse(200, response);
    }
    if (seq > it->second) {
      return ErrorResponse(
          409, "ingest sequence gap: expected " + std::to_string(it->second) +
                   ", got " + std::to_string(seq));
    }
  }
  const size_t accepted = Push(values.data(), values.size());
  JsonValue response = JsonValue::Object();
  response.Set("accepted", JsonValue::Number(static_cast<double>(accepted)));
  response.Set("pushed", JsonValue::Number(static_cast<double>(pushed())));
  if (accepted < values.size()) {
    response.Set("error", JsonValue::String("ingest closed mid-batch"));
    return JsonResponse(409, response);
  }
  // Advance only on a fully-applied chunk, so a failed push is retryable
  // under the same sequence number.
  if (sequenced) ++ingest_next_seq_[session];
  return JsonResponse(200, response);
}

HttpResponse SketchService::HandleStats(const RequestContext& context) {
  JsonValue body = JsonValue::Object();
  body.Set("pushed", JsonValue::Number(static_cast<double>(pushed())));
  body.Set("ingest_open", JsonValue::Bool(!source_.closed()));
  body.Set("ingest_done", JsonValue::Bool(ingest_done()));
  const std::string error = ingest_error();
  if (!error.empty()) body.Set("ingest_error", JsonValue::String(error));
  body.Set("snapshots_published",
           JsonValue::Number(static_cast<double>(registry_.published())));
  JsonValue queries = JsonValue::Object();
  queries.Set("selfjoin",
              JsonValue::Number(static_cast<double>(
                  queries_selfjoin_.load(MemOrder::kRelaxed))));
  queries.Set("join", JsonValue::Number(static_cast<double>(
                          queries_join_.load(MemOrder::kRelaxed))));
  queries.Set("point", JsonValue::Number(static_cast<double>(
                           queries_point_.load(MemOrder::kRelaxed))));
  queries.Set("distinct",
              JsonValue::Number(static_cast<double>(
                  queries_distinct_.load(MemOrder::kRelaxed))));
  queries.Set("quantile",
              JsonValue::Number(static_cast<double>(
                  queries_quantile_.load(MemOrder::kRelaxed))));
  queries.Set("subpop", JsonValue::Number(static_cast<double>(
                            queries_subpop_.load(MemOrder::kRelaxed))));
  body.Set("queries", std::move(queries));
  body.Set("degraded_answers",
           JsonValue::Number(static_cast<double>(
               degraded_answers_.load(MemOrder::kRelaxed))));
  body.Set("deadline_rejected",
           JsonValue::Number(static_cast<double>(
               deadline_rejected_.load(MemOrder::kRelaxed))));
  body.Set("ingest_duplicates",
           JsonValue::Number(static_cast<double>(
               ingest_duplicates_.load(MemOrder::kRelaxed))));
  // Server-level overload counters (absent when no HTTP server filled the
  // context, e.g. router-level tests).
  if (context.server.valid) {
    JsonValue server = JsonValue::Object();
    server.Set("connections_rejected",
               JsonValue::Number(static_cast<double>(
                   context.server.connections_rejected)));
    server.Set("admission_rejected",
               JsonValue::Number(static_cast<double>(
                   context.server.admission_rejected)));
    server.Set("deadline_exceeded",
               JsonValue::Number(static_cast<double>(
                   context.server.deadline_exceeded)));
    body.Set("server", std::move(server));
  }
  if (context.admission != nullptr) {
    const AdmissionController::Stats adm = context.admission->stats();
    JsonValue admission = JsonValue::Object();
    admission.Set("offered",
                  JsonValue::Number(static_cast<double>(adm.offered)));
    admission.Set("admitted",
                  JsonValue::Number(static_cast<double>(adm.admitted)));
    admission.Set("shed", JsonValue::Number(static_cast<double>(adm.shed)));
    admission.Set("rejected",
                  JsonValue::Number(static_cast<double>(adm.rejected)));
    admission.Set("windows",
                  JsonValue::Number(static_cast<double>(adm.windows)));
    admission.Set("admit_rate", JsonValue::Number(adm.admit_rate));
    admission.Set("inflight",
                  JsonValue::Number(static_cast<double>(adm.inflight)));
    body.Set("admission", std::move(admission));
  }
  auto guard = registry_.Read(context.reader_slot);
  if (guard) {
    JsonValue snapshot = JsonValue::Object();
    snapshot.Set("position",
                 JsonValue::Number(static_cast<double>(guard->position)));
    snapshot.Set("kept", JsonValue::Number(static_cast<double>(guard->kept)));
    snapshot.Set("sequence",
                 JsonValue::Number(static_cast<double>(guard->sequence)));
    snapshot.Set("p", JsonValue::Number(guard->p));
    snapshot.Set("realized_p", JsonValue::Number(guard->realized_p()));
    snapshot.Set("distinct_enabled", JsonValue::Bool(guard->distinct.has_value()));
    snapshot.Set("quantile_enabled",
                 JsonValue::Bool(guard->quantile.has_value()));
    snapshot.Set("subpop_enabled", JsonValue::Bool(guard->subpop.has_value()));
    snapshot.Set("staleness",
                 JsonValue::Number(static_cast<double>(
                     SnapshotStaleness(*guard, CurrentFreshness(context)))));
    body.Set("snapshot", std::move(snapshot));
  }
  return JsonResponse(200, body);
}

QueryFreshness SketchService::CurrentFreshness(
    const RequestContext& context) const {
  QueryFreshness fresh;
  fresh.pushed = pushed();
  // Ingest stalled: the engine died on an error, or stopped while the
  // source still accepts tuples, which the ingest thread now drops.
  fresh.ingest_stalled =
      !ingest_error().empty() || (ingest_done() && !source_.closed());
  fresh.admission_saturated = context.admission_saturated;
  fresh.freshness_lag = options_.freshness_lag;
  return fresh;
}

HttpResponse SketchService::Handle(Endpoint endpoint,
                                   const HttpRequest& request,
                                   const RequestContext& context) {
  switch (endpoint) {
    case Endpoint::kIngest:
      return HandleIngest(request);
    case Endpoint::kIngestClose: {
      CloseIngest();
      JsonValue body = JsonValue::Object();
      body.Set("closed", JsonValue::Bool(true));
      body.Set("pushed", JsonValue::Number(static_cast<double>(pushed())));
      return JsonResponse(200, body);
    }
    case Endpoint::kHealth: {
      JsonValue body = JsonValue::Object();
      body.Set("ok", JsonValue::Bool(true));
      return JsonResponse(200, body);
    }
    case Endpoint::kStats:
      return HandleStats(context);
    default:
      break;
  }

  // Shed compute that is already late: a request whose deadline expired
  // during read or queueing gets a clean 503 instead of burning snapshot
  // work nobody will wait for.
  if (context.DeadlineExpired()) {
    deadline_rejected_.fetch_add(1, MemOrder::kRelaxed);
    SKETCHSAMPLE_METRIC_INC("service.deadline_exceeded");
    HttpResponse response = ErrorResponse(503, "deadline exceeded");
    response.retry_after_s = 1;
    return response;
  }

  auto guard = registry_.Read(context.reader_slot);
  if (!guard) {
    return ErrorResponse(503, "no snapshot published yet");
  }
  double level = options_.default_level;
  if (const std::string* text = request.QueryParam("level")) {
    char* end = nullptr;
    const double parsed = std::strtod(text->c_str(), &end);
    if (end == nullptr || *end != '\0' || text->empty() ||
        !std::isfinite(parsed) || parsed <= 0.0 || parsed >= 1.0) {
      return ErrorResponse(400, "level must be a number in (0, 1)");
    }
    level = parsed;
  }

  const QueryFreshness fresh = CurrentFreshness(context);
  if (DegradedAnswer(*guard, fresh)) {
    degraded_answers_.fetch_add(1, MemOrder::kRelaxed);
    SKETCHSAMPLE_METRIC_INC("service.degraded_answers");
  }

  switch (endpoint) {
    case Endpoint::kSelfJoin: {
      queries_selfjoin_.fetch_add(1, MemOrder::kRelaxed);
      SKETCHSAMPLE_METRIC_INC("service.query.selfjoin");
      return JsonResponse(200,
                          SelfJoinResponseJson(*guard, options_.moments_f,
                                               level, fresh));
    }
    case Endpoint::kJoin: {
      if (!reference_.has_value()) {
        return ErrorResponse(
            400, "no join reference sketch configured (serve --join-sketch)");
      }
      queries_join_.fetch_add(1, MemOrder::kRelaxed);
      SKETCHSAMPLE_METRIC_INC("service.query.join");
      return JsonResponse(
          200, JoinResponseJson(*guard, *reference_, options_.moments_f,
                                options_.moments_g, level, fresh));
    }
    case Endpoint::kPoint: {
      const std::string* key_text = request.QueryParam("key");
      uint64_t key = 0;
      if (key_text == nullptr || !ParseUint64(*key_text, &key)) {
        return ErrorResponse(400,
                             "point query requires ?key=<unsigned decimal>");
      }
      queries_point_.fetch_add(1, MemOrder::kRelaxed);
      SKETCHSAMPLE_METRIC_INC("service.query.point");
      return JsonResponse(200, PointResponseJson(*guard, key,
                                                 options_.moments_f, level,
                                                 fresh));
    }
    case Endpoint::kDistinct: {
      if (!guard->distinct.has_value()) {
        return ErrorResponse(
            400, "distinct counting disabled (serve --distinct-k > 0)");
      }
      queries_distinct_.fetch_add(1, MemOrder::kRelaxed);
      SKETCHSAMPLE_METRIC_INC("service.query.distinct");
      return JsonResponse(200, DistinctResponseJson(*guard, level, fresh));
    }
    case Endpoint::kQuantile: {
      if (!guard->quantile.has_value()) {
        return ErrorResponse(
            400, "quantile queries disabled (serve --quantile-k > 0)");
      }
      const std::string* q_text = request.QueryParam("q");
      if (q_text == nullptr) {
        return ErrorResponse(400,
                             "quantile query requires ?q=<number in [0, 1]>");
      }
      char* end = nullptr;
      const double q = std::strtod(q_text->c_str(), &end);
      if (end == nullptr || *end != '\0' || q_text->empty() ||
          !std::isfinite(q) || q < 0.0 || q > 1.0) {
        return ErrorResponse(400,
                             "quantile query requires ?q=<number in [0, 1]>");
      }
      queries_quantile_.fetch_add(1, MemOrder::kRelaxed);
      SKETCHSAMPLE_METRIC_INC("service.query.quantile");
      return JsonResponse(200, QuantileResponseJson(*guard, q, level, fresh));
    }
    case Endpoint::kSubpop: {
      if (!guard->subpop.has_value()) {
        return ErrorResponse(
            400, "subpopulation queries disabled (serve --subpop-k > 0)");
      }
      const std::string* filter_text = request.QueryParam("filter");
      if (filter_text == nullptr) {
        return ErrorResponse(
            400, "subpop query requires ?filter=<range|mod|mask:a-b>");
      }
      SubpopPredicate pred;
      try {
        pred = ParseSubpopFilter(*filter_text);
      } catch (const std::invalid_argument& error) {
        return ErrorResponse(400, error.what());
      }
      queries_subpop_.fetch_add(1, MemOrder::kRelaxed);
      SKETCHSAMPLE_METRIC_INC("service.query.subpop");
      return JsonResponse(200, SubpopResponseJson(*guard, pred, level, fresh));
    }
    default:
      return ErrorResponse(500, "unroutable endpoint");
  }
}

}  // namespace sketchsample
