// Pure measurement logic of the service benchmark: percentile selection with
// the sample-count rule, the open-loop schedule and its lateness accounting,
// and the ladder subtraction that turns cumulative rung timings into
// per-layer costs. Header-only and free of library dependencies so
// selftest.cc can check it in isolation.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie beyond
/// it; otherwise the sample does not support it.
inline constexpr size_t kSamplesBeyond = 10;

/// Nearest-rank index of quantile q in a sorted sample of n values.
inline size_t RankIndex(size_t n, double q) {
  if (n == 0) return 0;
  // The epsilon keeps q * n = 90.00000000000001 from rounding up a rank.
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(idx, n - 1);
}

/// True when a sample of n values has at least kSamplesBeyond values above
/// the nearest-rank q-quantile.
inline bool SupportsPercentile(size_t n, double q) {
  return n > 0 && n - RankIndex(n, q) - 1 >= kSamplesBeyond;
}

/// Nearest-rank q-quantile of `sorted` (ascending; +inf entries allowed and
/// stand for failed requests). Requires a non-empty sample.
inline double Percentile(const std::vector<double>& sorted, double q) {
  return sorted[RankIndex(sorted.size(), q)];
}

/// The highest of `candidates` (ascending) that a sample of n values
/// supports, or nullopt when it supports none of them.
inline std::optional<double> HighestSupported(
    size_t n, const std::vector<double>& candidates) {
  std::optional<double> best;
  for (double q : candidates) {
    if (SupportsPercentile(n, q)) best = q;
  }
  return best;
}

/// Median of an unsorted sample (lower middle for even sizes, so the value
/// is always one that was measured). Requires a non-empty sample.
inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];
}

/// Mean of an unsorted sample without its lowest and highest `trim` share
/// of values (at least one value stays). Where the values fall into two
/// modes it moves with the share in each mode, where a median jumps from
/// one mode to the other. Requires a non-empty sample.
inline double TrimmedMean(std::vector<double> values, double trim) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  size_t cut = static_cast<size_t>(trim * static_cast<double>(n));
  if (2 * cut >= n) cut = (n - 1) / 2;
  double sum = 0;
  for (size_t i = cut; i < n - cut; ++i) sum += values[i];
  return sum / static_cast<double>(n - 2 * cut);
}

// ---------------------------------------------------------------------------
// Open-loop schedule.
// ---------------------------------------------------------------------------

/// Due time (ns after the schedule origin) of request i at a fixed rate.
inline int64_t DueNs(uint64_t i, double rate_per_s) {
  return static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate_per_s);
}

/// One request of an open-loop run, times relative to the schedule origin.
struct Scheduled {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;  ///< when the generator actually sent it
  int64_t recv_ns = 0;  ///< when the last response byte arrived
  bool ok = false;      ///< 200 with a well-formed body
};

/// Latency of each request measured from its due time, so a stall counts
/// against every request queued behind it; failed or refused requests are
/// +inf (they miss any limit).
inline std::vector<double> LatenciesUs(const std::vector<Scheduled>& run) {
  std::vector<double> out;
  out.reserve(run.size());
  for (const Scheduled& r : run) {
    out.push_back(r.ok ? static_cast<double>(r.recv_ns - r.due_ns) / 1e3
                       : std::numeric_limits<double>::infinity());
  }
  return out;
}

/// How late the generator sent each request relative to its schedule, in
/// µs (0 when on time). A health check on the generator, not the system.
inline std::vector<double> LatenessUs(const std::vector<Scheduled>& run) {
  std::vector<double> out;
  out.reserve(run.size());
  for (const Scheduled& r : run) {
    out.push_back(static_cast<double>(std::max<int64_t>(0, r.sent_ns - r.due_ns)) /
                  1e3);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Ladder subtraction.
// ---------------------------------------------------------------------------

/// One rung: the measured wall cost (ns per offered tuple, or per request)
/// of a prefix of the real path, and the rungs whose measured cost it
/// contains. The layer the rung adds costs `measured - sum(measured[base])`.
struct Rung {
  std::string name;
  std::optional<double> measured;  ///< nullopt: the rung was not measured
  std::vector<std::string> bases;
};

struct LadderRow {
  std::string name;
  double value = 0;  ///< layer cost; 0 when it could not be computed
  std::string note;  ///< why the row is unusual; empty when it is not
};

struct LadderResult {
  std::vector<LadderRow> rows;  ///< one per rung, in rung order
  double unaccounted = 0;       ///< end-to-end minus the top rung
  std::string unaccounted_note;
};

/// Differences adjacent rungs; the last rung is the top, compared with the
/// end-to-end cost of the same workload. Missing or negative rows keep
/// their row and carry a note.
inline LadderResult ComputeLadder(const std::vector<Rung>& rungs,
                                  std::optional<double> end_to_end) {
  LadderResult result;
  auto find = [&](const std::string& name) -> const Rung* {
    for (const Rung& r : rungs) {
      if (r.name == name) return &r;
    }
    return nullptr;
  };
  for (const Rung& rung : rungs) {
    LadderRow row{rung.name, 0.0, ""};
    if (!rung.measured.has_value()) {
      row.note = "missing: rung not measured";
      result.rows.push_back(row);
      continue;
    }
    double value = *rung.measured;
    for (const std::string& base : rung.bases) {
      const Rung* b = find(base);
      if (b == nullptr || !b->measured.has_value()) {
        row.note = "missing: base rung " + base + " not measured";
        break;
      }
      value -= *b->measured;
    }
    if (row.note.empty()) {
      row.value = value;
      if (value < 0) {
        row.note = "negative: the rung ran faster than the rungs it contains";
      }
    }
    result.rows.push_back(row);
  }
  const Rung* top = rungs.empty() ? nullptr : &rungs.back();
  if (top == nullptr || !top->measured.has_value() || !end_to_end) {
    result.unaccounted_note = "missing: no top rung or end-to-end figure";
  } else {
    result.unaccounted = *end_to_end - *top->measured;
    if (result.unaccounted < 0) {
      result.unaccounted_note =
          "negative: the top rung ran slower than the end-to-end run";
    }
  }
  return result;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
