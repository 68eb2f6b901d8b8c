#include "src/core/subpop_estimators.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <vector>

namespace sketchsample {

namespace {

// Strict decimal u64 parse: the whole token, no sign, no whitespace.
uint64_t ParseOperand(const std::string& token) {
  if (token.empty() || token[0] == '-' || token[0] == '+' ||
      !std::isdigit(static_cast<unsigned char>(token[0]))) {
    throw std::invalid_argument("subpop filter operand is not a number");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (errno == ERANGE || end != token.c_str() + token.size()) {
    throw std::invalid_argument("subpop filter operand is not a number");
  }
  return static_cast<uint64_t>(value);
}

// key % a == b without a division (a >= 1, b < a, as ParseSubpopFilter
// guarantees). A key below b leaves a remainder other than b, and a key
// from b up matches iff a divides x = key − b. With a = d·2^t, d odd and
// d⁻¹ its inverse mod 2^64, x·d⁻¹ rotated right by t is at most
// (2^64 − 1)/a exactly when d and 2^t both divide x (Granlund and
// Montgomery's test; Hacker's Delight §10-17).
class ModMatch {
 public:
  ModMatch(uint64_t a, uint64_t b)
      : b_(b), shift_(std::countr_zero(a)), limit_(UINT64_MAX / a) {
    const uint64_t d = a >> shift_;
    // Newton's iteration doubles the correct low bits of the inverse:
    // d·d ≡ 1 mod 8 gives 3, five rounds give all 64.
    inverse_ = d;
    for (int i = 0; i < 5; ++i) inverse_ *= 2 - d * inverse_;
  }
  bool operator()(uint64_t key) const {
    return (key >= b_) & (std::rotr((key - b_) * inverse_, shift_) <= limit_);
  }

 private:
  uint64_t b_;
  int shift_;
  uint64_t limit_;
  uint64_t inverse_ = 0;
};

// The matching entries' weight and squared-weight sums over the first `n`
// entries, one scan specialized to the predicate's kind. A non-matching
// entry adds +0.0 instead of taking a branch; the sums start at +0.0 and
// every weight is nonnegative, so they are bit-identical to summing the
// matches alone.
struct MatchSums {
  double weight = 0;
  double weight_sq = 0;
  size_t matched = 0;
};

template <typename Match>
MatchSums SumMatches(const KeyedKmvSketch::Entry* entries, size_t n,
                     Match match) {
  MatchSums sums;
  for (size_t i = 0; i < n; ++i) {
    const bool hit = match(entries[i].key);
    const double w = hit ? static_cast<double>(entries[i].weight) : 0.0;
    sums.weight += w;
    sums.weight_sq += w * w;
    sums.matched += hit;
  }
  return sums;
}

MatchSums SumMatches(const KeyedKmvSketch::Entry* entries, size_t n,
                     const SubpopPredicate& pred) {
  const uint64_t a = pred.a;
  const uint64_t b = pred.b;
  switch (pred.kind) {
    case SubpopPredicate::Kind::kRange:
      return SumMatches(entries, n, [a, b](uint64_t key) {
        return (a <= key) & (key <= b);
      });
    case SubpopPredicate::Kind::kMod:
      return SumMatches(entries, n, ModMatch(a, b));
    case SubpopPredicate::Kind::kMask:
      return SumMatches(entries, n,
                        [a, b](uint64_t key) { return (key & a) == b; });
  }
  return {};
}

}  // namespace

bool SubpopPredicate::Matches(uint64_t key) const {
  switch (kind) {
    case Kind::kRange:
      return a <= key && key <= b;
    case Kind::kMod:
      return ModMatch(a, b)(key);
    case Kind::kMask:
      return (key & a) == b;
  }
  return false;
}

std::string SubpopPredicate::ToString() const {
  const char* name = "range";
  switch (kind) {
    case Kind::kRange:
      name = "range";
      break;
    case Kind::kMod:
      name = "mod";
      break;
    case Kind::kMask:
      name = "mask";
      break;
  }
  return std::string(name) + ":" + std::to_string(a) + "-" +
         std::to_string(b);
}

SubpopPredicate ParseSubpopFilter(const std::string& text) {
  const size_t colon = text.find(':');
  if (colon == std::string::npos) {
    throw std::invalid_argument(
        "subpop filter must be kind:a-b (range|mod|mask)");
  }
  const std::string kind = text.substr(0, colon);
  const std::string rest = text.substr(colon + 1);
  const size_t dash = rest.find('-');
  if (dash == std::string::npos) {
    throw std::invalid_argument(
        "subpop filter must be kind:a-b (range|mod|mask)");
  }
  SubpopPredicate pred;
  pred.a = ParseOperand(rest.substr(0, dash));
  pred.b = ParseOperand(rest.substr(dash + 1));
  if (kind == "range") {
    pred.kind = SubpopPredicate::Kind::kRange;
    if (pred.a > pred.b) {
      throw std::invalid_argument("subpop range filter needs lo <= hi");
    }
  } else if (kind == "mod") {
    pred.kind = SubpopPredicate::Kind::kMod;
    if (pred.a == 0 || pred.b >= pred.a) {
      throw std::invalid_argument(
          "subpop mod filter needs modulus >= 1 and residue < modulus");
    }
  } else if (kind == "mask") {
    pred.kind = SubpopPredicate::Kind::kMask;
    if ((pred.b & ~pred.a) != 0) {
      throw std::invalid_argument(
          "subpop mask filter needs value to be a subset of the mask");
    }
  } else {
    throw std::invalid_argument(
        "subpop filter kind must be range, mod, or mask");
  }
  return pred;
}

SubpopEstimate EstimateSubpopulation(const KeyedKmvSketch& sketch,
                                     const SubpopPredicate& pred,
                                     double realized_p) {
  return EstimateSubpopulation(sketch.Entries(), sketch.k(), pred,
                               realized_p);
}

SubpopEstimate EstimateSubpopulation(
    const std::vector<KeyedKmvSketch::Entry>& entries, size_t k,
    const SubpopPredicate& pred, double realized_p) {
  if (!(realized_p > 0.0 && realized_p <= 1.0)) {
    throw std::invalid_argument("realized sampling rate must be in (0, 1]");
  }
  if (k < 2) throw std::invalid_argument("keyed KMV needs k >= 2");
  SubpopEstimate out;
  if (entries.size() < k) {
    // Every distinct kept key is retained: the kept weight is an exact
    // filtered sum, and only the shedding term contributes variance.
    out.exact = true;
    out.sample_size = entries.size();
    const MatchSums sums = SumMatches(entries.data(), entries.size(), pred);
    out.kept_estimate = sums.weight;
    out.matched = sums.matched;
  } else {
    // Condition on the k-th smallest hash as the inclusion threshold u:
    // the other k−1 entries are distinct keys retained with probability u
    // each, so the Horvitz–Thompson sum over the matching ones estimates
    // the kept subpopulation weight with Cohen–Kaplan's conditional
    // variance (1−u)/u² · Σ w².
    const double u = KmvThreshold01(entries.back().hash);
    out.sample_size = entries.size() - 1;  // the k-th entry is the threshold
    const MatchSums sums =
        SumMatches(entries.data(), out.sample_size, pred);
    out.matched = sums.matched;
    out.kept_estimate = sums.weight / u;
    out.sketch_variance = (1.0 - u) / (u * u) * sums.weight_sq;
  }
  // Undo the shedding: kept weight is Binomial(W, p), so dividing by p̂
  // scales the bottom-k variance by 1/p̂² and adds the binomial term
  // Ŵ_kept(1−p̂)/p̂² (estimating W(1−p)/p with observed quantities).
  const double p2 = realized_p * realized_p;
  out.estimate = out.kept_estimate / realized_p;
  out.sketch_variance /= p2;
  out.sampling_variance = out.kept_estimate * (1.0 - realized_p) / p2;
  out.variance = out.sketch_variance + out.sampling_variance;
  return out;
}

ConfidenceInterval SubpopInterval(const SubpopEstimate& estimate,
                                  double level) {
  ConfidenceInterval ci =
      CltInterval(estimate.estimate, estimate.variance, level);
  ci.low = std::max(0.0, ci.low);
  return ci;
}

}  // namespace sketchsample
