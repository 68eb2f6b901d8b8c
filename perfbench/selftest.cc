// Checks the benchmark's own measurement logic (perfbench/stats.h):
// percentile selection and the sample-count rule, the open-loop schedule and
// lateness accounting, and the ladder subtraction. Exit 0 when every check
// passes; each failure is printed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "perfbench/stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::abs(a - b) < 1e-9; }

void PercentileSelection() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Check(Near(perfbench::Percentile(v, 0.5), 50), "p50 of 1..100 is 50");
  Check(Near(perfbench::Percentile(v, 0.9), 90), "p90 of 1..100 is 90");
  Check(Near(perfbench::Percentile(v, 0.99), 99), "p99 of 1..100 is 99");
  Check(Near(perfbench::Percentile({7}, 0.99), 7), "single sample");
  Check(perfbench::Median({3, 1, 2}) == 2, "odd median");
  Check(perfbench::Median({4, 1, 3, 2}) == 2, "even median is the lower middle");
  Check(Near(perfbench::TrimmedMean({100, 1, 2, 3, -50}, 0.2), 2),
        "trimmed mean drops a fifth at each end");
  Check(Near(perfbench::TrimmedMean({5, 7}, 0.5), 6),
        "trimmed mean never trims every value");
  // Two modes, 6 rounds at 10 and 4 at 20: the median sits in the larger
  // mode, the trimmed mean between them by their shares.
  const std::vector<double> modes = {10, 20, 10, 20, 10, 20, 10, 20, 10, 10};
  Check(perfbench::Median(modes) == 10, "median of two modes is one mode");
  Check(Near(perfbench::TrimmedMean(modes, 0.2), 80.0 / 6),
        "trimmed mean of two modes lies between them");
}

void SampleCountRule() {
  // p99 needs ten samples beyond it: n - ceil(0.99 n) >= 10 -> n >= 1000.
  Check(!perfbench::SupportsPercentile(999, 0.99), "999 samples: no p99");
  Check(perfbench::SupportsPercentile(1000, 0.99), "1000 samples: p99");
  Check(perfbench::SupportsPercentile(100, 0.9), "100 samples: p90");
  Check(!perfbench::SupportsPercentile(99, 0.9), "99 samples: no p90");
  Check(!perfbench::SupportsPercentile(0, 0.5), "empty sample: nothing");
  const auto top = perfbench::HighestSupported(500, {0.5, 0.9, 0.99, 0.999});
  Check(top.has_value() && Near(*top, 0.9), "500 samples: p90 is highest");
  Check(!perfbench::HighestSupported(15, {0.5, 0.9}).has_value(),
        "15 samples support no p50 (7 beyond)");
  Check(perfbench::HighestSupported(21, {0.5, 0.9}).has_value(),
        "21 samples support p50 (10 beyond)");
}

void OpenLoopSchedule() {
  Check(perfbench::DueNs(0, 4000) == 0, "first request due at origin");
  Check(perfbench::DueNs(4, 4000) == 1000000, "4000/s: 4th due at 1 ms");
  // Request 1 stalls for 1 ms; requests 2 and 3 were due during the stall
  // and are sent late. Latency counts from the due time, so the stall is
  // charged to every request queued behind it.
  std::vector<perfbench::Scheduled> run = {
      {0, 0, 100000, true},
      {250000, 250000, 1250000, true},
      {500000, 1250000, 1300000, true},
      {750000, 1300000, 1350000, true},
      {1000000, 1350000, 1400000, false},
  };
  const std::vector<double> lat = perfbench::LatenciesUs(run);
  Check(Near(lat[0], 100), "on-time request latency");
  Check(Near(lat[1], 1000), "stalled request latency");
  Check(Near(lat[2], 800), "queued request charged from its due time");
  Check(Near(lat[3], 600), "second queued request charged from its due time");
  Check(std::isinf(lat[4]), "failed request misses every limit");
  const std::vector<double> late = perfbench::LatenessUs(run);
  Check(Near(late[0], 0) && Near(late[1], 0), "on-time sends are not late");
  Check(Near(late[2], 750) && Near(late[3], 550), "late sends");
  // A sorted sample with failures puts them at the top.
  std::vector<double> sorted = lat;
  std::sort(sorted.begin(), sorted.end());
  Check(std::isinf(sorted.back()), "failures sort last");
}

void Ladder() {
  using perfbench::Rung;
  const std::vector<Rung> rungs = {
      {"keep", 2.0, {}},
      {"sketch", 5.0, {}},
      {"engine", 10.0, {"keep", "sketch"}},
      {"publish", 12.5, {"engine"}},
      {"push", 15.0, {"publish"}},
  };
  const perfbench::LadderResult r = perfbench::ComputeLadder(rungs, 16.0);
  Check(r.rows.size() == 5, "one row per rung");
  Check(Near(r.rows[2].value, 3.0), "engine layer = engine - keep - sketch");
  Check(Near(r.rows[3].value, 2.5), "publish layer = hooked - engine");
  Check(Near(r.rows[4].value, 2.5), "push layer = push - publish");
  double sum = 0;
  for (const auto& row : r.rows) sum += row.value;
  Check(Near(sum, 15.0), "layers telescope to the top rung");
  Check(Near(r.unaccounted, 1.0), "unaccounted = end-to-end - top rung");
  Check(r.unaccounted_note.empty(), "no note on a positive remainder");

  // Parallel lanes can make a rung cheaper than its serial parts: the row
  // stays, with a note.
  const std::vector<Rung> parallel = {
      {"keep", 4.0, {}}, {"engine", 3.0, {"keep"}}};
  const perfbench::LadderResult p = perfbench::ComputeLadder(parallel, 2.0);
  Check(p.rows.size() == 2 && Near(p.rows[1].value, -1.0),
        "negative row kept with its value");
  Check(p.rows[1].note.rfind("negative", 0) == 0, "negative row noted");
  Check(Near(p.unaccounted, -1.0) && !p.unaccounted_note.empty(),
        "negative remainder noted");

  const std::vector<Rung> missing = {
      {"keep", std::nullopt, {}}, {"engine", 3.0, {"keep"}}};
  const perfbench::LadderResult m = perfbench::ComputeLadder(missing, 3.5);
  Check(m.rows.size() == 2, "missing rungs keep their rows");
  Check(m.rows[0].note.rfind("missing", 0) == 0, "missing rung noted");
  Check(m.rows[1].note.rfind("missing", 0) == 0,
        "row over a missing base noted");
  Check(Near(m.unaccounted, 0.5), "remainder still computed from the top");
  Check(!perfbench::ComputeLadder(missing, std::nullopt).unaccounted_note.empty(),
        "no end-to-end figure noted");
}

}  // namespace

int main() {
  PercentileSelection();
  SampleCountRule();
  OpenLoopSchedule();
  Ladder();
  if (failures > 0) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
