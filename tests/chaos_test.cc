// Overload-resilience tests for the service under socket-level chaos
// (src/service/chaos.h) and request deadlines (src/service/server.h):
//
//  - the injector itself: named presets, seed determinism of the fault
//    sequence, short-count clamping on real socketpairs;
//  - slow-loris header and body trickles against a live HttpServer, which
//    must answer 408 when the request's wall-clock budget expires instead
//    of letting the trickler camp on a slot;
//  - X-Deadline-Ms shrinking a request's own budget, and an expired
//    deadline answering 503 before any snapshot work;
//  - partial reads/writes and mid-stream resets between a real client and
//    server: byte-identical answers, transport retries with deterministic
//    backoff, and exactly-once ingest via X-Ingest-Session sequencing.
//
// Every fault sequence is a pure function of a literal seed, so failures
// reproduce bit-exactly; only the slow-loris tests use real time (the
// attacker's pacing cannot be injected under the victim's syscalls).

// lint:allow-file(raw-atomic-confined): a start flag releasing real closer
// threads in the teardown-race test; harness-side only.
#include "src/service/chaos.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/service/client.h"
#include "src/service/router.h"
#include "src/service/server.h"
#include "src/service/service.h"
#include "src/util/json.h"
#include "src/util/rng.h"

namespace sketchsample {
namespace {

constexpr uint64_t kChaosSeed = 0xc4a05u;

SketchServiceOptions SmallServiceOptions() {
  SketchServiceOptions options;
  options.sketch.rows = 3;
  options.sketch.buckets = 128;
  options.sketch.seed = 33;
  options.engine.shards = 2;
  options.engine.shed_p = 0.5;
  options.engine.seed = 42;
  options.engine.chunk_tuples = 512;
  options.engine.distinct_k = 64;
  options.engine.quantile_k = 64;
  options.engine.subpop_k = 32;
  options.snapshot_every = 2048;
  options.max_readers = 8;
  return options;
}

// Service + router + live HTTP server on an ephemeral port.
struct LiveService {
  explicit LiveService(const HttpServerOptions& server_options,
                       const SketchServiceOptions& service_options =
                           SmallServiceOptions())
      : service(service_options) {
    service.Register(router);
    server.emplace(&router, server_options);
    server->Start();
    service.Start();
  }
  ~LiveService() {
    server->Stop();
    service.Stop();
  }
  int port() const { return server->port(); }

  SketchService service;
  Router router;
  std::optional<HttpServer> server;
};

// Raw client socket for driving hostile byte timings the HttpClient would
// never produce.
int RawConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

void RawSend(int fd, const std::string& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
}

// Reads until EOF or the socket's receive timeout.
std::string RawDrain(int fd) {
  std::string out;
  char buf[1024];
  for (;;) {
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r <= 0) break;
    out.append(buf, static_cast<size_t>(r));
  }
  return out;
}

TEST(ChaosProfileTest, NamedPresetsAndUnknownNames) {
  EXPECT_FALSE(ChaosProfile::FromName("none").Active());
  const ChaosProfile mild = ChaosProfile::FromName("mild");
  const ChaosProfile harsh = ChaosProfile::FromName("harsh");
  EXPECT_TRUE(mild.Active());
  EXPECT_TRUE(harsh.Active());
  EXPECT_GT(harsh.partial_read_prob, mild.partial_read_prob);
  EXPECT_GT(harsh.reset_prob, mild.reset_prob);
  EXPECT_THROW(ChaosProfile::FromName("bogus"), std::invalid_argument);
  EXPECT_FALSE(ChaosProfile::FromName("").Active()) << "empty means none";
}

TEST(ChaosProfileTest, DefaultProfileIsInert) {
  EXPECT_FALSE(ChaosProfile().Active());
  // With no injector installed the seams are the plain syscalls.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_EQ(ChaosSend(sv[0], "abc", 3, 0), 3);
  char buf[8];
  ASSERT_EQ(ChaosRecv(sv[1], buf, sizeof(buf), 0), 3);
  EXPECT_EQ(std::string(buf, 3), "abc");
  ChaosOnClose(sv[0]);
  ::close(sv[0]);
  ::close(sv[1]);
}

// The core reproducibility contract: the same seed replays the exact fault
// sequence, operation by operation, independent of wall clock.
TEST(ChaosInjectorTest, SameSeedReplaysTheExactFaultSequence) {
  ChaosProfile profile;
  profile.partial_read_prob = 0.5;
  profile.reset_prob = 0.2;

  auto run = [&](uint64_t seed) {
    ChaosInjector injector(profile, seed);
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::vector<ssize_t> results;
    std::string received;
    for (int op = 0; op < 64; ++op) {
      EXPECT_EQ(::send(sv[1], "01234567", 8, 0), 8);
      char buf[8];
      const ssize_t r = injector.Recv(sv[0], buf, sizeof(buf), 0);
      results.push_back(r == -1 ? -errno : r);
      if (r > 0) received.append(buf, static_cast<size_t>(r));
      // Drain whatever the short count left behind so each op starts from
      // an identical socket state.
      ssize_t rest;
      while ((rest = ::recv(sv[0], buf, sizeof(buf), MSG_DONTWAIT)) > 0) {
        received.append(buf, static_cast<size_t>(rest));
      }
    }
    ::close(sv[0]);
    ::close(sv[1]);
    return std::make_pair(results, injector.injected());
  };

  const auto first = run(kChaosSeed);
  const auto replay = run(kChaosSeed);
  EXPECT_EQ(first.first, replay.first);
  EXPECT_EQ(first.second, replay.second);
  EXPECT_GT(first.second, 0u) << "the profile must actually fire";
  // Some ops were clamped short, some reset with ECONNRESET.
  bool saw_short = false;
  bool saw_reset = false;
  for (const ssize_t r : first.first) {
    if (r > 0 && r < 8) saw_short = true;
    if (r == -ECONNRESET) saw_reset = true;
  }
  EXPECT_TRUE(saw_short);
  EXPECT_TRUE(saw_reset);

  const auto reseeded = run(kChaosSeed ^ 0xdead);
  EXPECT_NE(first.first, reseeded.first)
      << "a different seed draws a different fault sequence";
}

TEST(ChaosInjectorTest, PartialWriteDeliversAPrefixShortCount) {
  ChaosProfile profile;
  profile.partial_write_prob = 1.0;
  ChaosInjector injector(profile, kChaosSeed);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string payload(100, 'x');
  const ssize_t sent = injector.Send(sv[0], payload.data(), payload.size(), 0);
  ASSERT_GT(sent, 0);
  ASSERT_LT(sent, static_cast<ssize_t>(payload.size()))
      << "probability 1 must clamp every multi-byte send";
  char buf[128];
  EXPECT_EQ(::recv(sv[1], buf, sizeof(buf), MSG_DONTWAIT), sent)
      << "exactly the clamped prefix reaches the peer";
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(ChaosSeedTest, EnvOverrideFallsBackWhenUnsetOrMalformed) {
  ::unsetenv("SKETCHSAMPLE_CHAOS_SEED");
  EXPECT_EQ(ChaosSeedFromEnv(7), 7u);
  ::setenv("SKETCHSAMPLE_CHAOS_SEED", "12345", 1);
  EXPECT_EQ(ChaosSeedFromEnv(7), 12345u);
  ::setenv("SKETCHSAMPLE_CHAOS_SEED", "not-a-seed", 1);
  EXPECT_EQ(ChaosSeedFromEnv(7), 7u);
  ::unsetenv("SKETCHSAMPLE_CHAOS_SEED");
}

TEST(BackoffTest, DelaysAreDeterministicCappedAndJittered) {
  ClientRetryPolicy policy;
  policy.base_backoff_ms = 10;
  policy.max_backoff_ms = 200;
  policy.jitter_seed = 99;
  int last_raw = 0;
  for (int failures = 1; failures <= 12; ++failures) {
    const int delay = BackoffDelayMs(policy, failures, /*salt=*/failures);
    EXPECT_EQ(delay, BackoffDelayMs(policy, failures, failures))
        << "same position, same delay";
    const int raw =
        std::min(policy.max_backoff_ms, policy.base_backoff_ms
                                            << std::min(failures - 1, 20));
    EXPECT_GE(delay, raw / 2) << "jitter floor is half the raw delay";
    EXPECT_LE(delay, raw);
    EXPECT_GE(raw, last_raw) << "the schedule never shrinks";
    last_raw = raw;
  }
  // The cap holds even at absurd failure counts (no shift overflow).
  EXPECT_LE(BackoffDelayMs(policy, 1000, 0), policy.max_backoff_ms);
  // Different salts decorrelate the jitter at the same failure count.
  std::vector<int> delays;
  for (uint64_t salt = 0; salt < 32; ++salt) {
    delays.push_back(BackoffDelayMs(policy, 5, salt));
  }
  EXPECT_GT(std::set<int>(delays.begin(), delays.end()).size(), 1u);
  // A zero base disables backoff entirely.
  policy.base_backoff_ms = 0;
  EXPECT_EQ(BackoffDelayMs(policy, 3, 0), 0);
}

// A client that sends half a request line and then stalls must get 408 when
// the wall-clock budget expires — not camp on the slot until recv_timeout.
TEST(ServerDeadlineTest, SlowLorisHeaderTrickleGets408) {
  HttpServerOptions options;
  options.max_connections = 2;
  options.recv_timeout_ms = 100;
  options.default_deadline_ms = 400;
  LiveService live(options);

  const auto start = std::chrono::steady_clock::now();
  const int fd = RawConnect(live.port());
  RawSend(fd, "GET /stats HTT");  // the clock starts at the first byte
  const std::string response = RawDrain(fd);  // trickler never finishes
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ::close(fd);

  EXPECT_EQ(response.rfind("HTTP/1.1 408", 0), 0u) << response;
  EXPECT_NE(response.find("request read deadline exceeded"),
            std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_LT(elapsed, std::chrono::seconds(3))
      << "the 408 must arrive on budget expiry, not on idle timeout";
  EXPECT_GE(live.server->stats().deadline_exceeded, 1u);
}

// Same discipline for a body trickle: complete headers, dribbled body.
TEST(ServerDeadlineTest, BodyTrickleGets408AndFreesTheSlot) {
  HttpServerOptions options;
  options.max_connections = 2;
  options.recv_timeout_ms = 100;
  options.default_deadline_ms = 400;
  LiveService live(options);

  const int fd = RawConnect(live.port());
  RawSend(fd,
          "POST /ingest HTTP/1.1\r\nContent-Length: 1000\r\n\r\n123 45");
  const std::string response = RawDrain(fd);
  ::close(fd);
  EXPECT_EQ(response.rfind("HTTP/1.1 408", 0), 0u) << response;
  EXPECT_EQ(live.service.pushed(), 0u)
      << "a half-read batch must never half-ingest";

  // The slot is free again: a well-formed request on a fresh connection
  // answers normally.
  HttpClient client("127.0.0.1", live.port());
  const HttpClient::Response ok = client.Get("/healthz");
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.status, 200);
}

// X-Deadline-Ms lets a request shrink its own budget: if the budget is
// already spent by the time the request is parsed, the query path answers
// 503 before touching a snapshot.
TEST(ServerDeadlineTest, XDeadlineMsShrinksTheBudget) {
  HttpServerOptions options;
  options.recv_timeout_ms = 100;
  options.default_deadline_ms = 10000;  // the default alone would not expire
  LiveService live(options);

  const int fd = RawConnect(live.port());
  RawSend(fd, "G");  // first byte starts the request clock
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  RawSend(fd,
          "ET /query/selfjoin HTTP/1.1\r\nX-Deadline-Ms: 50\r\n"
          "Connection: close\r\n\r\n");
  const std::string response = RawDrain(fd);
  ::close(fd);
  EXPECT_EQ(response.rfind("HTTP/1.1 503", 0), 0u) << response;
  EXPECT_NE(response.find("deadline exceeded"), std::string::npos);
  EXPECT_NE(response.find("Retry-After:"), std::string::npos);
}

// Router-level version of the same check, with no sockets or sleeps.
TEST(RouterDeadlineTest, ExpiredDeadlineAnswers503BeforeSnapshotWork) {
  SketchService service(SmallServiceOptions());
  Router router;
  service.Register(router);
  HttpRequest request;
  request.method = "GET";
  request.path = "/query/selfjoin";

  RequestContext expired;
  expired.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);
  const HttpResponse response = router.Dispatch(request, expired);
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("deadline exceeded"), std::string::npos);
  EXPECT_GE(response.retry_after_s, 1);

  // A live deadline answers normally, and stamps freshness fields.
  RequestContext alive;
  alive.deadline = std::chrono::steady_clock::now() +
                   std::chrono::seconds(30);
  const HttpResponse ok = router.Dispatch(request, alive);
  ASSERT_EQ(ok.status, 200);
  const std::optional<JsonValue> body = JsonValue::Parse(ok.body);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->GetNumber("staleness"), 0.0);
  EXPECT_FALSE(body->Get("degraded")->AsBool());

  // Admission saturation marks the answer degraded without changing the
  // estimate fields.
  RequestContext saturated;
  saturated.admission_saturated = true;
  const HttpResponse degraded = router.Dispatch(request, saturated);
  ASSERT_EQ(degraded.status, 200);
  const std::optional<JsonValue> degraded_body =
      JsonValue::Parse(degraded.body);
  ASSERT_TRUE(degraded_body.has_value());
  EXPECT_TRUE(degraded_body->Get("degraded")->AsBool());
  EXPECT_EQ(degraded_body->GetNumber("estimate"), body->GetNumber("estimate"));
}

// The quantile and subpop endpoints carry the same freshness contract as
// the PR-9 endpoints: admission saturation stamps `degraded` without
// perturbing a single estimate field, and a fresh answer stamps zero
// staleness.
TEST(RouterDeadlineTest, QuantileAndSubpopStampFreshnessUnderAdmissionShed) {
  SketchService service(SmallServiceOptions());
  Router router;
  service.Register(router);

  const struct {
    const char* path;
    const char* query;
  } endpoints[] = {
      {"/query/quantile", "q=0.5"},
      {"/query/subpop", "filter=mod:7-3"},
  };
  for (const auto& endpoint : endpoints) {
    HttpRequest request;
    request.method = "GET";
    request.path = endpoint.path;
    const std::string query(endpoint.query);
    const size_t eq = query.find('=');
    request.query.emplace_back(query.substr(0, eq), query.substr(eq + 1));

    RequestContext normal;
    const HttpResponse clean = router.Dispatch(request, normal);
    ASSERT_EQ(clean.status, 200) << endpoint.path << ": " << clean.body;
    const std::optional<JsonValue> clean_body = JsonValue::Parse(clean.body);
    ASSERT_TRUE(clean_body.has_value());
    EXPECT_EQ(clean_body->GetNumber("staleness"), 0.0) << endpoint.path;
    EXPECT_FALSE(clean_body->Get("degraded")->AsBool()) << endpoint.path;

    RequestContext saturated;
    saturated.admission_saturated = true;
    const HttpResponse degraded = router.Dispatch(request, saturated);
    ASSERT_EQ(degraded.status, 200) << endpoint.path;
    const std::optional<JsonValue> degraded_body =
        JsonValue::Parse(degraded.body);
    ASSERT_TRUE(degraded_body.has_value());
    EXPECT_TRUE(degraded_body->Get("degraded")->AsBool()) << endpoint.path;
    EXPECT_EQ(degraded_body->GetNumber("estimate"),
              clean_body->GetNumber("estimate"))
        << endpoint.path;

    RequestContext expired;
    expired.deadline =
        std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
    EXPECT_EQ(router.Dispatch(request, expired).status, 503) << endpoint.path;
  }
}

// Partial reads and writes on both sides of a live connection must never
// change a single response byte — the length-prefixed write loops reassemble
// exactly the same stream, just in more pieces.
TEST(ChaosHttpTest, PartialReadsAndWritesPreserveByteIdentity) {
  HttpServerOptions options;
  LiveService live(options);
  Xoshiro256 rng(5);
  std::vector<uint64_t> stream(20000);
  for (uint64_t& v : stream) v = rng() % 500;
  ASSERT_EQ(live.service.Push(stream.data(), stream.size()), stream.size());
  live.service.CloseIngest();
  while (!live.service.ingest_done()) std::this_thread::yield();

  std::string clean_selfjoin;
  std::string clean_point;
  std::string clean_quantile;
  std::string clean_subpop;
  {
    HttpClient client("127.0.0.1", live.port());
    clean_selfjoin = client.Get("/query/selfjoin").body;
    clean_point = client.Get("/query/point?key=7").body;
    clean_quantile = client.Get("/query/quantile?q=0.9").body;
    clean_subpop = client.Get("/query/subpop?filter=mod:7-3").body;
    ASSERT_FALSE(clean_selfjoin.empty());
    ASSERT_FALSE(clean_quantile.empty());
    ASSERT_FALSE(clean_subpop.empty());
  }

  ChaosProfile profile;
  profile.partial_read_prob = 0.75;
  profile.partial_write_prob = 0.75;
  ScopedChaosInjector chaos(profile, kChaosSeed);
  HttpClient client("127.0.0.1", live.port());
  for (int i = 0; i < 5; ++i) {
    const HttpClient::Response selfjoin = client.Get("/query/selfjoin");
    ASSERT_TRUE(selfjoin.ok) << selfjoin.error;
    ASSERT_EQ(selfjoin.status, 200);
    EXPECT_EQ(selfjoin.body, clean_selfjoin) << "iteration " << i;
    const HttpClient::Response point = client.Get("/query/point?key=7");
    ASSERT_TRUE(point.ok) << point.error;
    EXPECT_EQ(point.body, clean_point);
    const HttpClient::Response quantile = client.Get("/query/quantile?q=0.9");
    ASSERT_TRUE(quantile.ok) << quantile.error;
    EXPECT_EQ(quantile.body, clean_quantile);
    const HttpClient::Response subpop =
        client.Get("/query/subpop?filter=mod:7-3");
    ASSERT_TRUE(subpop.ok) << subpop.error;
    EXPECT_EQ(subpop.body, clean_subpop);
  }
  EXPECT_GT(chaos.injector()->injected(), 0u);
}

// Mid-stream connection resets kill the socket under the response; the
// client's deterministic backoff + reconnect must still land every request.
TEST(ChaosHttpTest, MidStreamResetsAreSurvivedByClientRetries) {
  HttpServerOptions options;
  LiveService live(options);

  ChaosProfile profile;
  profile.partial_read_prob = 0.3;
  profile.partial_write_prob = 0.3;
  profile.reset_prob = 0.08;
  ScopedChaosInjector chaos(profile, kChaosSeed);

  HttpClient client("127.0.0.1", live.port());
  ClientRetryPolicy policy;
  policy.max_attempts = 10;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 4;
  policy.jitter_seed = kChaosSeed;
  client.set_retry_policy(policy);

  for (int i = 0; i < 30; ++i) {
    const HttpClient::Response response = client.Get("/healthz");
    ASSERT_TRUE(response.ok) << "request " << i << ": " << response.error;
    ASSERT_EQ(response.status, 200);
  }
  EXPECT_GT(client.retries(), 0u)
      << "this seed must exercise the retry path at least once";
}

TEST(IngestDedupTest, SequencedChunksAckDuplicatesAndRejectGaps) {
  SketchService service(SmallServiceOptions());
  Router router;
  service.Register(router);
  RequestContext context;
  service.Start();

  auto ingest = [&](const std::string& body, const std::string& session,
                    const std::string& seq) {
    HttpRequest request;
    request.method = "POST";
    request.path = "/ingest";
    request.body = body;
    if (!session.empty()) request.headers["x-ingest-session"] = session;
    if (!seq.empty()) request.headers["x-ingest-seq"] = seq;
    return router.Dispatch(request, context);
  };

  // In-order chunks apply normally.
  EXPECT_EQ(ingest("1 2 3", "9", "0").status, 200);
  EXPECT_EQ(ingest("4 5", "9", "1").status, 200);
  EXPECT_EQ(service.pushed(), 5u);

  // A replay of an applied chunk is acked as a duplicate without pushing.
  const HttpResponse duplicate = ingest("4 5", "9", "1");
  EXPECT_EQ(duplicate.status, 200);
  const std::optional<JsonValue> ack = JsonValue::Parse(duplicate.body);
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->Get("duplicate")->AsBool());
  EXPECT_EQ(ack->GetNumber("accepted"), 0.0);
  EXPECT_EQ(service.pushed(), 5u) << "a duplicate must not double-ingest";

  // A gap is a client bug: typed 409, nothing applied.
  const HttpResponse gap = ingest("6 7", "9", "5");
  EXPECT_EQ(gap.status, 409);
  EXPECT_NE(gap.body.find("ingest sequence gap: expected 2, got 5"),
            std::string::npos);
  EXPECT_EQ(service.pushed(), 5u);

  // Sessions are independent; malformed sequencing headers are 400s.
  EXPECT_EQ(ingest("6", "10", "0").status, 200);
  EXPECT_EQ(service.pushed(), 6u);
  EXPECT_EQ(ingest("7", "not-a-number", "0").status, 400);
  EXPECT_EQ(ingest("7", "11", "").status, 400)
      << "a session without a sequence number is malformed";
  EXPECT_EQ(service.pushed(), 6u);
  service.Stop();
}

// The end-to-end exactly-once contract: a sequenced producer retrying over
// a resetting, short-counting transport lands every tuple exactly once.
TEST(IngestDedupTest, RetriedIngestOverChaosTransportIsExactlyOnce) {
  HttpServerOptions options;
  LiveService live(options);

  constexpr int kChunks = 40;
  constexpr int kTuplesPerChunk = 25;
  {
    ChaosProfile profile;
    profile.partial_read_prob = 0.3;
    profile.partial_write_prob = 0.3;
    profile.reset_prob = 0.08;
    ScopedChaosInjector chaos(profile, kChaosSeed);

    HttpClient client("127.0.0.1", live.port());
    ClientRetryPolicy policy;
    policy.max_attempts = 10;
    policy.base_backoff_ms = 1;
    policy.max_backoff_ms = 4;
    policy.jitter_seed = kChaosSeed;
    client.set_retry_policy(policy);
    IngestClient ingest(&client, /*session=*/77);

    Xoshiro256 rng(11);
    for (int chunk = 0; chunk < kChunks; ++chunk) {
      std::string body;
      for (int i = 0; i < kTuplesPerChunk; ++i) {
        body += std::to_string(rng() % 1000);
        body += ' ';
      }
      const HttpClient::Response response = ingest.Post(body);
      ASSERT_TRUE(response.ok) << "chunk " << chunk << ": " << response.error;
      ASSERT_EQ(response.status, 200);
    }
    EXPECT_EQ(ingest.next_seq(), static_cast<uint64_t>(kChunks));
  }

  // Chaos uninstalled; seal the stream and check the books.
  HttpClient control("127.0.0.1", live.port());
  ASSERT_EQ(control.Post("/ingest/close", "").status, 200);
  while (!live.service.ingest_done()) std::this_thread::yield();
  EXPECT_EQ(live.service.pushed(),
            static_cast<uint64_t>(kChunks) * kTuplesPerChunk)
      << "retries must not double-ingest nor drop chunks";
}

// Teardown race: keep-alive connections send their last requests and close
// on both ends (the client's Disconnect and the server's connection thread
// each call ChaosOnClose) while the scope that installed the injector ends.
// The installed injector is shared-owned, so a seam already inside it keeps
// it alive past the uninstall; under ASan or TSan (this suite runs under
// the `tsan` label) a deleted injector shows up here as a use-after-free or
// a race.
TEST(ChaosTeardownTest, UninstallWhileKeepAliveConnectionsCloseIsSafe) {
  HttpServerOptions options;
  LiveService live(options);
  constexpr int kRounds = 25;
  constexpr int kConnections = 8;
  for (int round = 0; round < kRounds; ++round) {
    ChaosProfile profile;
    profile.partial_read_prob = 0.2;
    profile.partial_write_prob = 0.2;
    std::optional<ScopedChaosInjector> chaos;
    chaos.emplace(profile, kChaosSeed + static_cast<uint64_t>(round));
    std::vector<std::unique_ptr<HttpClient>> clients;
    for (int c = 0; c < kConnections; ++c) {
      clients.push_back(std::make_unique<HttpClient>("127.0.0.1", live.port()));
      const HttpClient::Response health = clients.back()->Get("/healthz");
      ASSERT_TRUE(health.ok) << "round " << round << ": " << health.error;
      ASSERT_EQ(health.status, 200);
    }
    std::atomic<bool> go{false};
    std::vector<std::thread> closers;
    for (std::unique_ptr<HttpClient>& client : clients) {
      closers.emplace_back([&go, &client] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < 3; ++i) {
          const HttpClient::Response health = client->Get("/healthz");
          EXPECT_TRUE(health.ok) << health.error;
        }
        client.reset();
      });
    }
    go.store(true);
    std::this_thread::sleep_for(std::chrono::microseconds(50 * (round % 4)));
    chaos.reset();  // uninstall while requests and closes are in flight
    for (std::thread& t : closers) t.join();
  }
  HttpClient client("127.0.0.1", live.port());
  const HttpClient::Response health = client.Get("/healthz");
  ASSERT_TRUE(health.ok) << health.error;
  EXPECT_EQ(health.status, 200);
}

}  // namespace
}  // namespace sketchsample
