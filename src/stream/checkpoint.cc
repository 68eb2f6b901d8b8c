#include "src/stream/checkpoint.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <utility>

#include "src/util/crc32.h"
#include "src/util/metrics.h"

namespace sketchsample {

namespace {

constexpr uint8_t kMagic[4] = {'S', 'K', 'C', 'P'};
constexpr uint32_t kVersion = 1;
constexpr uint8_t kFlagShed = 1u << 0;
constexpr uint8_t kFlagController = 1u << 1;
constexpr uint8_t kFlagShards = 1u << 2;
constexpr uint8_t kFlagShardDistinct = 1u << 3;
constexpr uint8_t kFlagQuantileSubpop = 1u << 4;

// Sanity bound on the declared shard count: far above any real engine
// (worker threads), low enough that a hostile count cannot drive a huge
// allocation before the per-shard length checks run.
constexpr uint64_t kMaxCheckpointShards = 1u << 16;

class Writer {
 public:
  // Room for every fixed-size header field. It also keeps GCC 12 at -O3
  // from reading the inlined growth of an empty vector (1, 2, 4 bytes) as
  // out-of-bounds writes (-Wstringop-overflow, -Warray-bounds).
  Writer() { bytes_.reserve(256); }

  template <typename T>
  void Put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t offset = bytes_.size();
    bytes_.resize(offset + sizeof(T));
    std::memcpy(bytes_.data() + offset, &value, sizeof(T));
  }

  void PutBytes(const std::vector<uint8_t>& blob) {
    bytes_.insert(bytes_.end(), blob.begin(), blob.end());
  }

  std::vector<uint8_t> Finish() {
    Put(Crc32(bytes_.data(), bytes_.size()));
    return std::move(bytes_);
  }

 private:
  std::vector<uint8_t> bytes_;
};

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {
    if (bytes.size() < sizeof(kMagic) + sizeof(uint32_t) * 2) {
      throw CheckpointError("checkpoint buffer too small");
    }
    uint32_t stored;
    std::memcpy(&stored, bytes.data() + bytes.size() - sizeof(stored),
                sizeof(stored));
    if (Crc32(bytes.data(), bytes.size() - sizeof(stored)) != stored) {
      throw CheckpointError("checkpoint CRC32 mismatch");
    }
    end_ = bytes.size() - sizeof(stored);
  }

  template <typename T>
  T Get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (end_ - pos_ < sizeof(T)) {
      throw CheckpointError("checkpoint buffer truncated");
    }
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::vector<uint8_t> GetBytes(uint64_t count) {
    if (count > end_ - pos_) {
      throw CheckpointError("checkpoint blob length exceeds buffer");
    }
    std::vector<uint8_t> blob(bytes_.begin() + static_cast<ptrdiff_t>(pos_),
                              bytes_.begin() +
                                  static_cast<ptrdiff_t>(pos_ + count));
    pos_ += static_cast<size_t>(count);
    return blob;
  }

  void ExpectConsumed() const {
    if (pos_ != end_) {
      throw CheckpointError("checkpoint buffer has trailing bytes");
    }
  }

 private:
  const std::vector<uint8_t>& bytes_;
  size_t pos_ = 0;
  size_t end_ = 0;
};

void PutRngState(Writer& writer, const Xoshiro256::State& state) {
  for (uint64_t word : state) writer.Put(word);
}

Xoshiro256::State GetRngState(Reader& reader) {
  Xoshiro256::State state{};
  for (auto& word : state) word = reader.Get<uint64_t>();
  return state;
}

double GetProbability(Reader& reader, const char* what) {
  const double p = reader.Get<double>();
  if (!std::isfinite(p) || p < 0.0 || p > 1.0) {
    throw CheckpointError(std::string("checkpoint holds invalid ") + what);
  }
  return p;
}

}  // namespace

std::vector<uint8_t> SerializeCheckpoint(const PipelineCheckpoint& cp) {
  Writer writer;
  for (uint8_t b : kMagic) writer.Put(b);
  writer.Put(kVersion);
  writer.Put(cp.source_tuples);
  uint8_t flags = 0;
  if (cp.has_shed) flags |= kFlagShed;
  if (cp.has_controller) flags |= kFlagController;
  if (cp.has_shards) flags |= kFlagShards;
  if (cp.has_shard_distinct) {
    if (!cp.has_shards) {
      throw CheckpointError(
          "checkpoint distinct blobs require a shard section");
    }
    flags |= kFlagShardDistinct;
  }
  if (cp.has_quantile_subpop) {
    if (!cp.has_shards) {
      throw CheckpointError(
          "checkpoint quantile/subpop section requires a shard section");
    }
    flags |= kFlagQuantileSubpop;
  }
  writer.Put(flags);
  if (cp.has_shed) {
    writer.Put(cp.shed.p);
    writer.Put(cp.shed.skip);
    writer.Put(cp.shed.seen);
    writer.Put(cp.shed.forwarded);
    writer.Put(static_cast<uint8_t>(cp.shed.has_skipper ? 1 : 0));
    PutRngState(writer, cp.shed.coin_rng);
    PutRngState(writer, cp.shed.skip_rng);
  }
  if (cp.has_controller) {
    writer.Put(cp.controller.p);
    writer.Put(cp.controller.backlog);
    writer.Put(cp.controller.windows);
    writer.Put(cp.controller.offered);
    writer.Put(cp.controller.kept);
  }
  if (cp.has_shards) {
    writer.Put(cp.shard_p);
    writer.Put(static_cast<uint64_t>(cp.shards.size()));
    for (const ShardCheckpointState& shard : cp.shards) {
      writer.Put(shard.seen);
      writer.Put(shard.kept);
      writer.Put(static_cast<uint64_t>(shard.sketch.size()));
      writer.PutBytes(shard.sketch);
      if (cp.has_shard_distinct) {
        writer.Put(static_cast<uint64_t>(shard.distinct.size()));
        writer.PutBytes(shard.distinct);
      }
    }
  }
  if (cp.has_quantile_subpop) {
    writer.Put(static_cast<uint64_t>(cp.quantile.size()));
    writer.PutBytes(cp.quantile);
    const uint64_t subpop_count =
        cp.has_shard_subpop ? static_cast<uint64_t>(cp.shards.size()) : 0;
    writer.Put(subpop_count);
    if (cp.has_shard_subpop) {
      for (const ShardCheckpointState& shard : cp.shards) {
        writer.Put(static_cast<uint64_t>(shard.subpop.size()));
        writer.PutBytes(shard.subpop);
      }
    }
  }
  writer.Put(static_cast<uint64_t>(cp.sketch.size()));
  writer.PutBytes(cp.sketch);
  std::vector<uint8_t> bytes = writer.Finish();
  SKETCHSAMPLE_METRIC_INC("stream.checkpoint.writes");
  SKETCHSAMPLE_METRIC_ADD("stream.checkpoint.bytes", bytes.size());
  return bytes;
}

PipelineCheckpoint DeserializeCheckpoint(const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  for (uint8_t expected : kMagic) {
    if (reader.Get<uint8_t>() != expected) {
      throw CheckpointError("not a checkpoint buffer (bad magic)");
    }
  }
  const uint32_t version = reader.Get<uint32_t>();
  if (version != kVersion) {
    throw CheckpointError("unsupported checkpoint format version");
  }
  PipelineCheckpoint cp;
  cp.source_tuples = reader.Get<uint64_t>();
  const uint8_t flags = reader.Get<uint8_t>();
  if ((flags & ~(kFlagShed | kFlagController | kFlagShards |
                 kFlagShardDistinct | kFlagQuantileSubpop)) != 0) {
    throw CheckpointError("checkpoint has unknown flag bits");
  }
  if ((flags & kFlagShardDistinct) != 0 && (flags & kFlagShards) == 0) {
    throw CheckpointError(
        "checkpoint distinct flag set without a shard section");
  }
  if ((flags & kFlagQuantileSubpop) != 0 && (flags & kFlagShards) == 0) {
    throw CheckpointError(
        "checkpoint quantile/subpop flag set without a shard section");
  }
  if ((flags & kFlagShed) != 0) {
    cp.has_shed = true;
    cp.shed.p = GetProbability(reader, "shed rate");
    cp.shed.skip = reader.Get<uint64_t>();
    cp.shed.seen = reader.Get<uint64_t>();
    cp.shed.forwarded = reader.Get<uint64_t>();
    if (cp.shed.forwarded > cp.shed.seen) {
      throw CheckpointError("checkpoint shed counts inconsistent");
    }
    const uint8_t has_skipper = reader.Get<uint8_t>();
    if (has_skipper > 1) {
      throw CheckpointError("checkpoint shed skipper flag invalid");
    }
    cp.shed.has_skipper = has_skipper == 1;
    if (cp.shed.has_skipper && cp.shed.p <= 0.0) {
      throw CheckpointError("checkpoint shed skipper requires p > 0");
    }
    cp.shed.coin_rng = GetRngState(reader);
    cp.shed.skip_rng = GetRngState(reader);
  }
  if ((flags & kFlagController) != 0) {
    cp.has_controller = true;
    cp.controller.p = GetProbability(reader, "controller rate");
    cp.controller.backlog = reader.Get<double>();
    if (!std::isfinite(cp.controller.backlog) || cp.controller.backlog < 0) {
      throw CheckpointError("checkpoint holds invalid controller backlog");
    }
    cp.controller.windows = reader.Get<uint64_t>();
    cp.controller.offered = reader.Get<uint64_t>();
    cp.controller.kept = reader.Get<uint64_t>();
    if (cp.controller.kept > cp.controller.offered) {
      throw CheckpointError("checkpoint controller counts inconsistent");
    }
  }
  if ((flags & kFlagShards) != 0) {
    cp.has_shards = true;
    cp.shard_p = GetProbability(reader, "shard shed rate");
    const uint64_t shard_count = reader.Get<uint64_t>();
    if (shard_count == 0 || shard_count > kMaxCheckpointShards) {
      throw CheckpointError("checkpoint declares invalid shard count");
    }
    cp.shards.reserve(static_cast<size_t>(shard_count));
    for (uint64_t i = 0; i < shard_count; ++i) {
      ShardCheckpointState shard;
      shard.seen = reader.Get<uint64_t>();
      shard.kept = reader.Get<uint64_t>();
      if (shard.kept > shard.seen) {
        throw CheckpointError("checkpoint shard counts inconsistent");
      }
      const uint64_t blob_len = reader.Get<uint64_t>();
      shard.sketch = reader.GetBytes(blob_len);
      if ((flags & kFlagShardDistinct) != 0) {
        cp.has_shard_distinct = true;
        const uint64_t distinct_len = reader.Get<uint64_t>();
        shard.distinct = reader.GetBytes(distinct_len);
      }
      cp.shards.push_back(std::move(shard));
    }
  }
  if ((flags & kFlagQuantileSubpop) != 0) {
    cp.has_quantile_subpop = true;
    const uint64_t kll_len = reader.Get<uint64_t>();
    cp.quantile = reader.GetBytes(kll_len);
    const uint64_t subpop_count = reader.Get<uint64_t>();
    if (subpop_count != 0 && subpop_count != cp.shards.size()) {
      throw CheckpointError(
          "checkpoint subpop blob count does not match shard count");
    }
    if (subpop_count != 0) {
      cp.has_shard_subpop = true;
      for (uint64_t i = 0; i < subpop_count; ++i) {
        const uint64_t subpop_len = reader.Get<uint64_t>();
        cp.shards[static_cast<size_t>(i)].subpop = reader.GetBytes(subpop_len);
      }
    }
  }
  const uint64_t sketch_len = reader.Get<uint64_t>();
  cp.sketch = reader.GetBytes(sketch_len);
  reader.ExpectConsumed();
  SKETCHSAMPLE_METRIC_INC("stream.checkpoint.restores");
  return cp;
}

void FileCheckpointSink::Write(const std::vector<uint8_t>& bytes,
                               uint64_t source_tuples) {
  (void)source_tuples;
  const std::string tmp = path_ + ".tmp";
  {
    std::FILE* out = std::fopen(tmp.c_str(), "wb");
    if (out == nullptr) {
      throw std::runtime_error("cannot open checkpoint file: " + tmp);
    }
    const size_t written =
        bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), out);
    const int close_err = std::fclose(out);
    if (written != bytes.size() || close_err != 0) {
      std::remove(tmp.c_str());
      throw std::runtime_error("short write to checkpoint file: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot replace checkpoint file: " + path_);
  }
}

}  // namespace sketchsample
