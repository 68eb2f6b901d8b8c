#include "src/sampling/bernoulli.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/util/metrics.h"

namespace sketchsample {

BernoulliSampler::BernoulliSampler(double p, uint64_t seed)
    : p_(p), rng_(seed) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("Bernoulli p must be in [0, 1]");
  }
}

std::vector<uint64_t> BernoulliSampler::Sample(
    const std::vector<uint64_t>& stream) {
  std::vector<uint64_t> out;
  out.reserve(static_cast<size_t>(p_ * static_cast<double>(stream.size())));
  for (uint64_t v : stream) {
    if (Keep()) out.push_back(v);
  }
  SKETCHSAMPLE_METRIC_ADD("sampling.bernoulli.seen", stream.size());
  SKETCHSAMPLE_METRIC_ADD("sampling.bernoulli.kept", out.size());
  return out;
}

GeometricSkipSampler::GeometricSkipSampler(double p, uint64_t seed)
    : p_(p), rng_(seed) {
  if (p <= 0.0 || p > 1.0) {
    throw std::invalid_argument("skip sampler needs p in (0, 1]");
  }
  log1mp_ = p == 1.0 ? -std::numeric_limits<double>::infinity()
                     : std::log1p(-p);
}

uint64_t GeometricSkipSampler::NextSkip() {
  if (p_ == 1.0) return 0;
  // Inverse-transform sample of Geometric(p) on {0, 1, 2, ...}: the count of
  // failures before the first success is floor(log(U)/log(1-p)).
  double u = rng_.NextDouble();
  while (u <= 0.0) u = rng_.NextDouble();  // guard log(0)
  return static_cast<uint64_t>(std::log(u) / log1mp_);
}

std::vector<uint64_t> GeometricSkipSampler::Sample(
    const std::vector<uint64_t>& stream) {
  std::vector<uint64_t> out;
  out.reserve(static_cast<size_t>(p_ * static_cast<double>(stream.size())));
  size_t pos = NextSkip();
  while (pos < stream.size()) {
    out.push_back(stream[pos]);
    pos += 1 + NextSkip();
  }
  SKETCHSAMPLE_METRIC_ADD("sampling.skip.seen", stream.size());
  SKETCHSAMPLE_METRIC_ADD("sampling.skip.kept", out.size());
  return out;
}

PositionalBernoulliSampler::PositionalBernoulliSampler(double p, uint64_t seed)
    : p_(p), seed_(seed) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("Bernoulli p must be in [0, 1]");
  }
}

size_t PositionalBernoulliSampler::KeepBatch(uint64_t base,
                                             const uint64_t* values, size_t n,
                                             uint64_t* out) const {
  size_t kept = 0;
  if (p_ >= 1.0) {
    // Every position's coin is < 1, so keep the whole chunk. Copy only when
    // the caller gave a distinct destination.
    if (out != values) {
      for (size_t i = 0; i < n; ++i) out[i] = values[i];
    }
    kept = n;
  } else if (p_ > 0.0) {
    for (size_t i = 0; i < n; ++i) {
      const uint64_t value = values[i];  // read before any aliasing write
      out[kept] = value;
      kept += static_cast<size_t>(Uniform(base + i) < p_);
    }
  }
  SKETCHSAMPLE_METRIC_ADD("sampling.positional.seen", n);
  SKETCHSAMPLE_METRIC_ADD("sampling.positional.kept", kept);
  return kept;
}

}  // namespace sketchsample
