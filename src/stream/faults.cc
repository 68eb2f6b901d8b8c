#include "src/stream/faults.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "src/util/metrics.h"

namespace sketchsample {

bool FaultProfile::Active() const {
  return corrupt_prob > 0.0 || duplicate_prob > 0.0 || reorder_prob > 0.0 ||
         truncate_prob > 0.0 || stall_every > 0 || die_after > 0;
}

FaultProfile FaultProfile::FromName(const std::string& name) {
  FaultProfile profile;
  if (name == "none") return profile;
  if (name == "mild") {
    profile.corrupt_prob = 0.001;
    profile.duplicate_prob = 0.001;
    profile.stall_every = 100000;
    profile.stall_pulls = 3;
    return profile;
  }
  if (name == "harsh") {
    profile.corrupt_prob = 0.01;
    profile.duplicate_prob = 0.01;
    profile.reorder_prob = 0.01;
    profile.truncate_prob = 0.1;
    profile.stall_every = 20000;
    profile.stall_pulls = 10;
    return profile;
  }
  throw std::invalid_argument("unknown fault profile: " + name);
}

FaultInjectingSource::FaultInjectingSource(StreamSource* inner,
                                           const FaultProfile& profile,
                                           uint64_t seed)
    : inner_(inner), profile_(profile), rng_(seed) {
  next_stall_at_ = profile_.stall_every;
}

std::optional<uint64_t> FaultInjectingSource::Next() {
  uint64_t value = 0;
  return NextChunk(&value, 1) == 1 ? std::optional<uint64_t>(value)
                                   : std::nullopt;
}

size_t FaultInjectingSource::NextChunk(uint64_t* out, size_t max_n) {
  if (max_n == 0) return 0;
  if (dead_) {
    stalled_ = true;
    return 0;
  }
  // Positional faults fire before any data moves: a pending stall episode
  // yields zero-length "would block" pulls the engine must ride out.
  if (stall_left_ > 0) {
    --stall_left_;
    stalled_ = true;
    return 0;
  }
  if (profile_.stall_every > 0 && emitted_ >= next_stall_at_) {
    next_stall_at_ += profile_.stall_every;
    stall_left_ = profile_.stall_pulls;
    faults_ += 1;
    SKETCHSAMPLE_METRIC_INC("stream.faults.injected");
    if (stall_left_ > 0) {
      --stall_left_;
      stalled_ = true;
      return 0;
    }
  }
  stalled_ = false;
  const size_t n = PullChunk(out, max_n);
  if (n == 0 && (dead_ || inner_->Stalled())) stalled_ = true;
  return n;
}

size_t FaultInjectingSource::PullChunk(uint64_t* out, size_t max_n) {
  size_t budget = max_n;
  if (profile_.truncate_prob > 0.0 && budget > 1 &&
      rng_.NextDouble() < profile_.truncate_prob) {
    budget = 1 + static_cast<size_t>(
                     rng_.NextBounded(static_cast<uint64_t>(budget - 1)));
    faults_ += 1;
    SKETCHSAMPLE_METRIC_INC("stream.faults.injected");
  }

  size_t n = 0;
  // Duplication overflow from the previous pull goes out first.
  while (n < budget && !carry_.empty()) {
    out[n++] = carry_.front();
    carry_.erase(carry_.begin());
  }
  while (n < budget) {
    if (profile_.die_after > 0 && emitted_ + n >= profile_.die_after) {
      dead_ = true;
      faults_ += 1;
      SKETCHSAMPLE_METRIC_INC("stream.faults.injected");
      break;
    }
    const size_t got = inner_->NextChunk(out + n, 1);
    if (got == 0) break;
    uint64_t value = out[n];
    if (profile_.corrupt_prob > 0.0 &&
        rng_.NextDouble() < profile_.corrupt_prob) {
      value ^= rng_() & profile_.corrupt_mask;
      faults_ += 1;
      SKETCHSAMPLE_METRIC_INC("stream.faults.injected");
    }
    if (profile_.reorder_prob > 0.0 && n > 0 &&
        rng_.NextDouble() < profile_.reorder_prob) {
      std::swap(value, out[n - 1]);
      faults_ += 1;
      SKETCHSAMPLE_METRIC_INC("stream.faults.injected");
    }
    out[n++] = value;
    if (profile_.duplicate_prob > 0.0 &&
        rng_.NextDouble() < profile_.duplicate_prob) {
      faults_ += 1;
      SKETCHSAMPLE_METRIC_INC("stream.faults.injected");
      if (n < budget) {
        out[n++] = value;
      } else {
        carry_.push_back(value);
      }
    }
  }
  emitted_ += n;
  return n;
}

FaultInjectingOperator::FaultInjectingOperator(const FaultProfile& profile,
                                               uint64_t seed,
                                               std::string shard_label)
    : profile_(profile), rng_(seed), shard_label_(std::move(shard_label)) {}

void FaultInjectingOperator::CountFault() {
  faults_ += 1;
  if (shard_label_.empty() || !metrics::Enabled()) return;
  // A per-instance counter cannot go through SKETCHSAMPLE_METRIC_* (its
  // function-local static would pin the first instance's label for every
  // later one), so resolve the registry reference directly and cache it in
  // the member, not in a static.
  if (shard_counter_ == nullptr) {
    shard_counter_ = &metrics::Registry::Global().GetCounter(
        "stream.faults.injected." + shard_label_);
  }
  shard_counter_->Add(1);
}

const std::vector<uint64_t>& FaultInjectingOperator::OnTuples(
    const uint64_t* values, size_t n) {
  const uint64_t faults_before = faults_;
  scratch_.clear();
  scratch_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t value = values[i];
    if (profile_.corrupt_prob > 0.0 &&
        rng_.NextDouble() < profile_.corrupt_prob) {
      value ^= rng_() & profile_.corrupt_mask;
      CountFault();
    }
    if (profile_.reorder_prob > 0.0 && !scratch_.empty() &&
        rng_.NextDouble() < profile_.reorder_prob) {
      std::swap(value, scratch_.back());
      CountFault();
    }
    scratch_.push_back(value);
    if (profile_.duplicate_prob > 0.0 &&
        rng_.NextDouble() < profile_.duplicate_prob) {
      scratch_.push_back(value);
      CountFault();
    }
  }
  SKETCHSAMPLE_METRIC_ADD("stream.faults.injected", faults_ - faults_before);
  return scratch_;
}

uint64_t FaultSeedFromEnv(uint64_t fallback) {
  const char* raw = std::getenv("SKETCHSAMPLE_FAULT_SEED");
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0') return fallback;
  return static_cast<uint64_t>(parsed);
}

}  // namespace sketchsample
