// Tests for the bench regression gate (tools/gate.{h,cc}): schema
// validation, point matching, throughput-drop detection, error-bound
// gating, cross-host skipping, and malformed-input rejection.
#include "tools/gate.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/util/json.h"
#include "tools/bench_gate_main.h"

namespace sketchsample {
namespace gate {
namespace {

// Builds a schema-v1 report with a single point. `labels` and `metrics`
// are injected verbatim as JSON object bodies.
std::string ReportText(const std::string& host, const std::string& metrics,
                       const std::string& labels = "\"skew\":\"0.8\"") {
  return "{\"schema_version\":1,\"name\":\"fig3\",\"host\":\"" + host +
         "\",\"points\":[{\"labels\":{" + labels + "},\"metrics\":{" +
         metrics + "}}]}";
}

JsonValue MustParse(const std::string& text) {
  auto v = JsonValue::Parse(text);
  EXPECT_TRUE(v.has_value()) << text;
  return v.value_or(JsonValue::Null());
}

// Writes `text` to a unique temp file and returns its path. Files are
// tiny and live in the test's scratch dir; the destructor removes them.
// The name carries the process id as well as a per-process counter:
// ctest runs every test in its own process, so under `ctest -j` a counter
// alone hands two concurrent tests the same file.
class TempFile {
 public:
  explicit TempFile(const std::string& text) {
    static int counter = 0;
    path_ = ::testing::TempDir() + "bench_gate_test_" +
            std::to_string(::getpid()) + "_" + std::to_string(counter++) +
            ".json";
    std::ofstream out(path_);
    out << text;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(ValidateReportTest, AcceptsWellFormedReport) {
  const JsonValue report =
      MustParse(ReportText("hostA", "\"updates_per_sec\":1e6"));
  EXPECT_EQ(ValidateReport(report), std::nullopt);
}

TEST(ValidateReportTest, RejectsSchemaViolations) {
  EXPECT_TRUE(ValidateReport(MustParse("[]")).has_value());
  EXPECT_TRUE(ValidateReport(MustParse("{\"name\":\"x\"}")).has_value());
  EXPECT_TRUE(ValidateReport(
                  MustParse("{\"schema_version\":2,\"name\":\"x\","
                            "\"points\":[]}"))
                  .has_value());
  EXPECT_TRUE(ValidateReport(
                  MustParse("{\"schema_version\":1,\"points\":[]}"))
                  .has_value());
  EXPECT_TRUE(ValidateReport(
                  MustParse("{\"schema_version\":1,\"name\":\"x\"}"))
                  .has_value());
  // Point without labels/metrics.
  EXPECT_TRUE(ValidateReport(
                  MustParse("{\"schema_version\":1,\"name\":\"x\","
                            "\"points\":[{}]}"))
                  .has_value());
  // Non-numeric metric value.
  EXPECT_TRUE(ValidateReport(
                  MustParse("{\"schema_version\":1,\"name\":\"x\",\"points\":"
                            "[{\"labels\":{},\"metrics\":{\"m\":\"fast\"}}]}"))
                  .has_value());
}

TEST(LoadReportTest, RejectsMissingAndMalformedFiles) {
  std::string error;
  EXPECT_FALSE(LoadReport("/nonexistent/path.json", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);

  TempFile garbage("{not json at all");
  EXPECT_FALSE(LoadReport(garbage.path(), &error).has_value());
  EXPECT_NE(error.find("malformed JSON"), std::string::npos);

  TempFile wrong_schema("{\"schema_version\":1}");
  EXPECT_FALSE(LoadReport(wrong_schema.path(), &error).has_value());

  TempFile good(ReportText("hostA", "\"updates_per_sec\":1e6"));
  EXPECT_TRUE(LoadReport(good.path(), &error).has_value());
}

TEST(CompareTest, IdenticalReportsPass) {
  const std::string text = ReportText(
      "hostA", "\"updates_per_sec\":1e6,\"mean_rel_error\":0.02,"
               "\"stderr_rel_error\":0.002");
  const Result r = Compare(MustParse(text), MustParse(text), Options());
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.failures.empty());
}

TEST(CompareTest, DetectsThroughputRegressionOnSameHost) {
  // 20% drop against the default 15% tolerance.
  const JsonValue base =
      MustParse(ReportText("hostA", "\"updates_per_sec\":1.0e6"));
  const JsonValue cur =
      MustParse(ReportText("hostA", "\"updates_per_sec\":0.8e6"));
  const Result r = Compare(base, cur, Options());
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].find("updates_per_sec dropped"), std::string::npos);
}

TEST(CompareTest, ToleratesDropWithinTolerance) {
  const JsonValue base =
      MustParse(ReportText("hostA", "\"updates_per_sec\":1.0e6"));
  const JsonValue cur =
      MustParse(ReportText("hostA", "\"updates_per_sec\":0.9e6"));
  EXPECT_TRUE(Compare(base, cur, Options()).ok);
}

TEST(CompareTest, ThroughputImprovementPasses) {
  const JsonValue base =
      MustParse(ReportText("hostA", "\"updates_per_sec\":1.0e6"));
  const JsonValue cur =
      MustParse(ReportText("hostA", "\"updates_per_sec\":2.0e6"));
  EXPECT_TRUE(Compare(base, cur, Options()).ok);
}

TEST(CompareTest, SkipsThroughputAcrossHostsUnlessForced) {
  const JsonValue base =
      MustParse(ReportText("hostA", "\"updates_per_sec\":1.0e6"));
  const JsonValue cur =
      MustParse(ReportText("hostB", "\"updates_per_sec\":0.5e6"));
  const Result skipped = Compare(base, cur, Options());
  EXPECT_TRUE(skipped.ok);
  ASSERT_FALSE(skipped.notes.empty());
  EXPECT_NE(skipped.notes[0].find("skipping throughput"), std::string::npos);

  Options forced;
  forced.force_throughput = true;
  EXPECT_FALSE(Compare(base, cur, forced).ok);
}

TEST(CompareTest, UnknownHostSkipsThroughput) {
  const JsonValue base =
      MustParse(ReportText("unknown", "\"updates_per_sec\":1.0e6"));
  const JsonValue cur =
      MustParse(ReportText("unknown", "\"updates_per_sec\":0.5e6"));
  EXPECT_TRUE(Compare(base, cur, Options()).ok);
}

// Builds a multi-point report where point i has throughput `tp[i]`.
std::string MultiPointReport(const std::string& host,
                             const std::vector<double>& tp) {
  std::string points;
  for (size_t i = 0; i < tp.size(); ++i) {
    if (i > 0) points += ",";
    points += "{\"labels\":{\"i\":\"" + std::to_string(i) +
              "\"},\"metrics\":{\"updates_per_sec\":" + std::to_string(tp[i]) +
              "}}";
  }
  return "{\"schema_version\":1,\"name\":\"fig3\",\"host\":\"" + host +
         "\",\"points\":[" + points + "]}";
}

TEST(CompareTest, PerPointJitterPassesButUniformShiftFails) {
  // Baseline: four points at 1e6. Jittered current alternates +-25% around
  // the baseline — every point individually exceeds the 15% tolerance in
  // one direction, but the geometric mean ratio is ~0.968, so it passes.
  const JsonValue base =
      MustParse(MultiPointReport("hostA", {1e6, 1e6, 1e6, 1e6}));
  const JsonValue jitter =
      MustParse(MultiPointReport("hostA", {1.25e6, 0.75e6, 1.25e6, 0.75e6}));
  EXPECT_TRUE(Compare(base, jitter, Options()).ok);

  // A uniform 20% drop on every point is a real regression.
  const JsonValue shifted =
      MustParse(MultiPointReport("hostA", {0.8e6, 0.8e6, 0.8e6, 0.8e6}));
  const Result r = Compare(base, shifted, Options());
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u);  // one aggregate failure, not four
  EXPECT_NE(r.failures[0].find("geomean"), std::string::npos);
}

// Builds a report whose points carry both throughput and a "seconds"
// duration, exercising the duration-weighted gate path.
std::string TimedReport(const std::string& host,
                        const std::vector<std::pair<double, double>>&
                            rate_and_seconds) {
  std::string points;
  for (size_t i = 0; i < rate_and_seconds.size(); ++i) {
    if (i > 0) points += ",";
    points += "{\"labels\":{\"i\":\"" + std::to_string(i) +
              "\"},\"metrics\":{\"updates_per_sec\":" +
              std::to_string(rate_and_seconds[i].first) +
              ",\"seconds\":" + std::to_string(rate_and_seconds[i].second) +
              "}}";
  }
  return "{\"schema_version\":1,\"name\":\"fig3\",\"host\":\"" + host +
         "\",\"points\":[" + points + "]}";
}

TEST(CompareTest, WeightedGateSkipsJitterDominatedReports) {
  // Total baseline time 2ms < the 0.25s floor: a huge apparent drop is
  // jitter, so the result is a note, not a failure.
  const JsonValue base =
      MustParse(TimedReport("hostA", {{1e9, 0.001}, {1e9, 0.001}}));
  const JsonValue cur =
      MustParse(TimedReport("hostA", {{0.5e9, 0.002}, {0.5e9, 0.002}}));
  const Result r = Compare(base, cur, Options());
  EXPECT_TRUE(r.ok);
  ASSERT_FALSE(r.notes.empty());
  EXPECT_NE(r.notes[0].find("not gated"), std::string::npos);
}

TEST(CompareTest, WeightedGateCatchesRegressionAboveFloor) {
  // 1s of baseline measurement, uniform 20% regression: gated and failed.
  const JsonValue base =
      MustParse(TimedReport("hostA", {{1e9, 0.5}, {1e9, 0.5}}));
  const JsonValue cur =
      MustParse(TimedReport("hostA", {{0.8e9, 0.625}, {0.8e9, 0.625}}));
  const Result r = Compare(base, cur, Options());
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].find("duration-weighted"), std::string::npos);

  // The same shapes with matching rates pass.
  EXPECT_TRUE(Compare(base, base, Options()).ok);
}

TEST(CompareTest, WeightedGateDiscountsShortNoisyPoints) {
  // One long stable point (1s at 1e9/s, unchanged) dominates one tiny point
  // that swings wildly (10us, 3x slower): no failure.
  const JsonValue base =
      MustParse(TimedReport("hostA", {{1e9, 1.0}, {3e9, 1e-5}}));
  const JsonValue cur =
      MustParse(TimedReport("hostA", {{1e9, 1.0}, {1e9, 3e-5}}));
  EXPECT_TRUE(Compare(base, cur, Options()).ok);
}

TEST(CompareTest, RespectsCustomTolerance) {
  const JsonValue base =
      MustParse(ReportText("hostA", "\"updates_per_sec\":1.0e6"));
  const JsonValue cur =
      MustParse(ReportText("hostA", "\"updates_per_sec\":0.8e6"));
  Options loose;
  loose.throughput_tolerance = 0.25;
  EXPECT_TRUE(Compare(base, cur, loose).ok);
  Options tight;
  tight.throughput_tolerance = 0.10;
  EXPECT_FALSE(Compare(base, cur, tight).ok);
}

TEST(CompareTest, ErrorWithinNoisePasses) {
  // Current mean is one combined-sigma above baseline: inside the 3-sigma
  // bound.
  const JsonValue base = MustParse(ReportText(
      "hostA", "\"mean_rel_error\":0.020,\"stderr_rel_error\":0.002"));
  const JsonValue cur = MustParse(ReportText(
      "hostA", "\"mean_rel_error\":0.0228,\"stderr_rel_error\":0.002"));
  EXPECT_TRUE(Compare(base, cur, Options()).ok);
}

TEST(CompareTest, ErrorBeyondNoiseFails) {
  // Combined noise = sqrt(2)*0.002 ~ 0.00283; 3 sigma ~ 0.0085. A jump of
  // 0.02 is far outside.
  const JsonValue base = MustParse(ReportText(
      "hostA", "\"mean_rel_error\":0.020,\"stderr_rel_error\":0.002"));
  const JsonValue cur = MustParse(ReportText(
      "hostA", "\"mean_rel_error\":0.040,\"stderr_rel_error\":0.002"));
  const Result r = Compare(base, cur, Options());
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].find("mean_rel_error worsened"), std::string::npos);
}

TEST(CompareTest, ErrorImprovementPasses) {
  const JsonValue base = MustParse(ReportText(
      "hostA", "\"mean_rel_error\":0.040,\"stderr_rel_error\":0.002"));
  const JsonValue cur = MustParse(ReportText(
      "hostA", "\"mean_rel_error\":0.020,\"stderr_rel_error\":0.002"));
  EXPECT_TRUE(Compare(base, cur, Options()).ok);
}

TEST(CompareTest, MissingBaselinePointFails) {
  const JsonValue base = MustParse(
      ReportText("hostA", "\"mean_rel_error\":0.02", "\"skew\":\"0.8\""));
  const JsonValue cur = MustParse(
      ReportText("hostA", "\"mean_rel_error\":0.02", "\"skew\":\"0.5\""));
  const Result r = Compare(base, cur, Options());
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].find("missing from current"), std::string::npos);
  // The extra current-only point is a note, not a failure.
  ASSERT_FALSE(r.notes.empty());
}

TEST(CompareTest, LabelOrderDoesNotAffectMatching) {
  const JsonValue base = MustParse(ReportText(
      "hostA", "\"mean_rel_error\":0.02", "\"a\":\"1\",\"b\":\"2\""));
  const JsonValue cur = MustParse(ReportText(
      "hostA", "\"mean_rel_error\":0.02", "\"b\":\"2\",\"a\":\"1\""));
  EXPECT_TRUE(Compare(base, cur, Options()).ok);
}

TEST(CompareTest, NameMismatchFails) {
  const std::string base = ReportText("hostA", "\"mean_rel_error\":0.02");
  std::string cur = base;
  const size_t at = cur.find("fig3");
  cur.replace(at, 4, "fig4");
  EXPECT_FALSE(Compare(MustParse(base), MustParse(cur), Options()).ok);
}

TEST(CompareTest, ChecksCanBeDisabled) {
  const JsonValue base = MustParse(ReportText(
      "hostA", "\"updates_per_sec\":1.0e6,\"mean_rel_error\":0.020,"
               "\"stderr_rel_error\":0.002"));
  const JsonValue cur = MustParse(ReportText(
      "hostA", "\"updates_per_sec\":0.5e6,\"mean_rel_error\":0.040,"
               "\"stderr_rel_error\":0.002"));
  Options no_tp;
  no_tp.check_throughput = false;
  Result r = Compare(base, cur, no_tp);
  ASSERT_EQ(r.failures.size(), 1u);  // only the error failure remains
  Options no_err;
  no_err.check_errors = false;
  r = Compare(base, cur, no_err);
  ASSERT_EQ(r.failures.size(), 1u);  // only the throughput failure remains
  no_err.check_throughput = false;
  EXPECT_TRUE(Compare(base, cur, no_err).ok);
}

TEST(CompareTest, EmptyBaselinePointsGateNothing) {
  // An empty baseline is vacuous coverage: nothing can fail, and extra
  // current points are noted but never gated.
  const std::string empty =
      "{\"schema_version\":1,\"name\":\"fig3\",\"host\":\"hostA\","
      "\"points\":[]}";
  const Result both_empty =
      Compare(MustParse(empty), MustParse(empty), Options());
  EXPECT_TRUE(both_empty.ok);

  const JsonValue populated = MustParse(
      ReportText("hostA", "\"updates_per_sec\":1.0e6"));
  const Result extra = Compare(MustParse(empty), populated, Options());
  EXPECT_TRUE(extra.ok);
  ASSERT_FALSE(extra.notes.empty());
  EXPECT_NE(extra.notes.back().find("not present in the baseline"),
            std::string::npos);

  // The reverse — populated baseline, empty current — is a coverage
  // regression on every baseline point.
  const Result vanished = Compare(populated, MustParse(empty), Options());
  EXPECT_FALSE(vanished.ok);
  ASSERT_EQ(vanished.failures.size(), 1u);
  EXPECT_NE(vanished.failures[0].find("missing from current"),
            std::string::npos);
}

TEST(CompareTest, DisappearedErrorMetricFails) {
  // The accuracy metric vanishing from the current report must fail, not
  // silently skip: otherwise a bench that stops reporting accuracy passes
  // the gate forever.
  const JsonValue base = MustParse(ReportText(
      "hostA", "\"mean_rel_error\":0.02,\"stderr_rel_error\":0.002"));
  const JsonValue cur =
      MustParse(ReportText("hostA", "\"updates_per_sec\":1.0e6"));
  const Result r = Compare(base, cur, Options());
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].find("accuracy coverage regression"),
            std::string::npos);

  // With the accuracy gate disabled the same pair passes.
  Options no_err;
  no_err.check_errors = false;
  EXPECT_TRUE(Compare(base, cur, no_err).ok);
}

// Runs BenchGateMain with a synthetic argv (the CLI mutates nothing, but
// argv must be writable char* per the main() contract).
int RunBenchGateMain(const std::vector<std::string>& args) {
  std::vector<std::vector<char>> storage;
  storage.reserve(args.size() + 1);
  storage.emplace_back(std::vector<char>{'b', 'g', '\0'});
  for (const std::string& arg : args) {
    storage.emplace_back(arg.begin(), arg.end());
    storage.back().push_back('\0');
  }
  std::vector<char*> argv;
  argv.reserve(storage.size());
  for (auto& s : storage) argv.push_back(s.data());
  return BenchGateMain(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchGateMainTest, ExitCodeContract) {
  const std::string ok_metrics =
      "\"updates_per_sec\":1.0e6,\"mean_rel_error\":0.02,"
      "\"stderr_rel_error\":0.002";
  TempFile baseline(ReportText("hostA", ok_metrics));
  TempFile same(ReportText("hostA", ok_metrics));
  TempFile regressed(ReportText("hostA",
                                "\"updates_per_sec\":0.5e6,"
                                "\"mean_rel_error\":0.02,"
                                "\"stderr_rel_error\":0.002"));

  // 0: no regression.
  EXPECT_EQ(RunBenchGateMain({baseline.path(), same.path()}), 0);
  // 1: regression detected.
  EXPECT_EQ(RunBenchGateMain({baseline.path(), regressed.path()}), 1);
  // 0: the only regression is throughput, and that gate is disabled.
  EXPECT_EQ(RunBenchGateMain(
                {"--no_throughput=true", baseline.path(), regressed.path()}),
            0);
}

TEST(BenchGateMainTest, UsageAndMalformedInputExitTwo) {
  TempFile baseline(ReportText("hostA", "\"updates_per_sec\":1.0e6"));

  // Wrong arity.
  EXPECT_EQ(RunBenchGateMain({}), 2);
  EXPECT_EQ(RunBenchGateMain({baseline.path()}), 2);
  EXPECT_EQ(RunBenchGateMain(
                {baseline.path(), baseline.path(), baseline.path()}),
            2);
  // Unknown flag.
  EXPECT_EQ(RunBenchGateMain(
                {"--no_such_flag=1", baseline.path(), baseline.path()}),
            2);
  // Unreadable and malformed current reports.
  EXPECT_EQ(RunBenchGateMain({baseline.path(), "/nonexistent/cur.json"}), 2);
  TempFile malformed("{\"schema_version\":1,");
  EXPECT_EQ(RunBenchGateMain({baseline.path(), malformed.path()}), 2);
  // Schema-invalid (valid JSON, wrong shape) baseline.
  TempFile wrong_schema("{\"schema_version\":1}");
  EXPECT_EQ(RunBenchGateMain({wrong_schema.path(), baseline.path()}), 2);
  // Empty file.
  TempFile empty("");
  EXPECT_EQ(RunBenchGateMain({empty.path(), baseline.path()}), 2);
}

TEST(GateFilesTest, EndToEndRegressionAndPass) {
  TempFile baseline(ReportText(
      "hostA", "\"updates_per_sec\":1.0e6,\"mean_rel_error\":0.02,"
               "\"stderr_rel_error\":0.002"));
  TempFile same(ReportText(
      "hostA", "\"updates_per_sec\":1.0e6,\"mean_rel_error\":0.02,"
               "\"stderr_rel_error\":0.002"));
  TempFile regressed(ReportText(
      "hostA", "\"updates_per_sec\":0.8e6,\"mean_rel_error\":0.02,"
               "\"stderr_rel_error\":0.002"));

  EXPECT_TRUE(GateFiles(baseline.path(), same.path(), Options()).ok);
  EXPECT_FALSE(GateFiles(baseline.path(), regressed.path(), Options()).ok);

  TempFile malformed("{\"schema_version\":1,");
  const Result bad = GateFiles(baseline.path(), malformed.path(), Options());
  EXPECT_FALSE(bad.ok);
  ASSERT_EQ(bad.failures.size(), 1u);
  EXPECT_NE(bad.failures[0].find("malformed JSON"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Within-report ratio rules (bench/rules/*.json).

// A report with the fused-kernel ISA series: scalar at 1e6 updates/s and a
// vector level at `vector_rate`, plus an "isa" config stamp.
std::string IsaReport(const std::string& isa, double vector_rate) {
  char buf[600];
  std::snprintf(
      buf, sizeof(buf),
      "{\"schema_version\":1,\"name\":\"bench_x\",\"host\":\"hostA\","
      "\"config\":{\"isa\":\"%s\"},\"points\":["
      "{\"labels\":{\"benchmark\":\"BM_Fused/scalar\"},"
      "\"metrics\":{\"updates_per_sec\":1e6}},"
      "{\"labels\":{\"benchmark\":\"BM_Fused/avx2\"},"
      "\"metrics\":{\"updates_per_sec\":%g}}]}",
      isa.c_str(), vector_rate);
  return buf;
}

std::string RuleText(double min_ratio, const std::string& require_isa,
                     const std::string& numerator = "BM_Fused/avx2") {
  char buf[500];
  std::snprintf(
      buf, sizeof(buf),
      "{\"schema_version\":1,\"rules\":[{"
      "\"description\":\"vector >= %gx scalar\","
      "\"metric\":\"updates_per_sec\",\"min_ratio\":%g%s,"
      "\"numerator\":{\"benchmark\":\"%s\"},"
      "\"denominator\":{\"benchmark\":\"BM_Fused/scalar\"}}]}",
      min_ratio, min_ratio,
      require_isa.empty()
          ? ""
          : (",\"require_isa\":\"" + require_isa + "\"").c_str(),
      numerator.c_str());
  return buf;
}

std::vector<RatioRule> MustLoadRules(const std::string& text) {
  TempFile file(text);
  std::string error;
  auto rules = LoadRules(file.path(), &error);
  EXPECT_TRUE(rules.has_value()) << error;
  return rules.value_or(std::vector<RatioRule>{});
}

TEST(RatioRuleTest, ValidatesSchema) {
  EXPECT_TRUE(ValidateRules(MustParse("[]")).has_value());
  EXPECT_TRUE(ValidateRules(MustParse("{\"rules\":[]}")).has_value());
  // Missing min_ratio.
  EXPECT_TRUE(
      ValidateRules(
          MustParse("{\"schema_version\":1,\"rules\":[{"
                    "\"numerator\":{\"benchmark\":\"a\"},"
                    "\"denominator\":{\"benchmark\":\"b\"}}]}"))
          .has_value());
  // Empty numerator selector.
  EXPECT_TRUE(ValidateRules(
                  MustParse("{\"schema_version\":1,\"rules\":[{"
                            "\"min_ratio\":2,\"numerator\":{},"
                            "\"denominator\":{\"benchmark\":\"b\"}}]}"))
                  .has_value());
  EXPECT_EQ(ValidateRules(MustParse(RuleText(2.0, "avx2"))), std::nullopt);
  // The optional report stamp must be a string when present.
  EXPECT_TRUE(ValidateRules(
                  MustParse("{\"schema_version\":1,\"report\":7,"
                            "\"rules\":[]}"))
                  .has_value());
  EXPECT_EQ(ValidateRules(MustParse("{\"schema_version\":1,"
                                    "\"report\":\"bench_x\",\"rules\":[]}")),
            std::nullopt);
}

TEST(RatioRuleTest, LoadRulesSurfacesTheDeclaredReportName) {
  TempFile stamped("{\"schema_version\":1,\"report\":\"bench_x\","
                   "\"rules\":[]}");
  std::string error;
  std::string declared = "sentinel";
  EXPECT_TRUE(LoadRules(stamped.path(), &error, &declared).has_value())
      << error;
  EXPECT_EQ(declared, "bench_x");

  TempFile unstamped("{\"schema_version\":1,\"rules\":[]}");
  declared = "sentinel";
  EXPECT_TRUE(LoadRules(unstamped.path(), &error, &declared).has_value())
      << error;
  EXPECT_EQ(declared, "");
}

// A rules file written for a different benchmark series must be a usage
// error (exit 2) with its own diagnostic, not a pile of per-rule coverage
// regressions (exit 1): the fix is passing the right file, not the bench.
TEST(BenchGateMainTest, RulesForAnAbsentSeriesExitTwo) {
  TempFile report(ReportText("hostA", "\"updates_per_sec\":1.0e6"));
  TempFile wrong_series(
      "{\"schema_version\":1,\"report\":\"bench_other\",\"rules\":[{"
      "\"min_ratio\":2,\"metric\":\"updates_per_sec\","
      "\"numerator\":{\"benchmark\":\"a\"},"
      "\"denominator\":{\"benchmark\":\"b\"}}]}");
  EXPECT_EQ(RunBenchGateMain({"--rules=" + wrong_series.path(), report.path(),
                              report.path()}),
            2);

  // The same rule under the right series stamp proceeds to evaluation and
  // fails as a genuine coverage regression (exit 1), as before.
  TempFile right_series(
      "{\"schema_version\":1,\"report\":\"fig3\",\"rules\":[{"
      "\"min_ratio\":2,\"metric\":\"updates_per_sec\","
      "\"numerator\":{\"benchmark\":\"a\"},"
      "\"denominator\":{\"benchmark\":\"b\"}}]}");
  EXPECT_EQ(RunBenchGateMain({"--rules=" + right_series.path(), report.path(),
                              report.path()}),
            1);

  // An unstamped rules file keeps the old behavior: evaluated as-is.
  TempFile unstamped(
      "{\"schema_version\":1,\"rules\":[{"
      "\"min_ratio\":2,\"metric\":\"updates_per_sec\","
      "\"numerator\":{\"benchmark\":\"a\"},"
      "\"denominator\":{\"benchmark\":\"b\"}}]}");
  EXPECT_EQ(RunBenchGateMain({"--rules=" + unstamped.path(), report.path(),
                              report.path()}),
            1);
}

TEST(RatioRuleTest, PassesWhenRatioMet) {
  const auto rules = MustLoadRules(RuleText(2.0, ""));
  const Result result = CheckRules(MustParse(IsaReport("avx2", 2.5e6)), rules);
  EXPECT_TRUE(result.ok) << (result.failures.empty() ? ""
                                                     : result.failures[0]);
}

TEST(RatioRuleTest, FailsWhenRatioBelowMinimum) {
  const auto rules = MustLoadRules(RuleText(2.0, ""));
  const Result result = CheckRules(MustParse(IsaReport("avx2", 1.4e6)), rules);
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.failures[0].find("below required"), std::string::npos);
}

TEST(RatioRuleTest, MissingNumeratorPointIsCoverageFailure) {
  // The rule names a point the report does not have: a vector kernel
  // silently falling off the dispatch table must fail, not skip.
  const auto rules = MustLoadRules(RuleText(2.0, "", "BM_Fused/avx512"));
  const Result result = CheckRules(MustParse(IsaReport("avx2", 2.5e6)), rules);
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.failures[0].find("coverage regression"), std::string::npos);
}

TEST(RatioRuleTest, RequireIsaSkipsBelowLevelAndEngagesAtLevel) {
  const auto rules = MustLoadRules(RuleText(2.0, "avx512"));
  // Report ran capped at avx2: the avx512 rule is a note, not a failure.
  const Result skipped =
      CheckRules(MustParse(IsaReport("avx2", 1.0e6)), rules);
  EXPECT_TRUE(skipped.ok);
  ASSERT_EQ(skipped.notes.size(), 1u);
  EXPECT_NE(skipped.notes[0].find("skipped"), std::string::npos);
  // Report ran at avx512: the rule engages and fails on the same numbers.
  EXPECT_FALSE(CheckRules(MustParse(IsaReport("avx512", 1.0e6)), rules).ok);
}

TEST(RatioRuleTest, MainWiresRulesFlag) {
  TempFile baseline(IsaReport("avx2", 2.5e6));
  TempFile current(IsaReport("avx2", 2.5e6));
  TempFile good_rules(RuleText(2.0, "avx2"));
  TempFile tight_rules(RuleText(3.0, "avx2"));
  TempFile bad_rules("{\"schema_version\":1,");
  EXPECT_EQ(RunBenchGateMain({"--rules=" + good_rules.path(), baseline.path(),
                              current.path()}),
            0);
  EXPECT_EQ(RunBenchGateMain({"--rules=" + tight_rules.path(),
                              baseline.path(), current.path()}),
            1);
  EXPECT_EQ(RunBenchGateMain({"--rules=" + bad_rules.path(), baseline.path(),
                              current.path()}),
            2);
}

}  // namespace
}  // namespace gate
}  // namespace sketchsample
