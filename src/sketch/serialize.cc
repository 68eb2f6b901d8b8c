#include "src/sketch/serialize.h"

#include <cstring>
#include <stdexcept>
#include <utility>

namespace sketchsample {

namespace {

constexpr uint8_t kMagic[4] = {'S', 'K', 'S', 'A'};
constexpr uint32_t kVersion = 1;

// FNV-1a over a byte range; cheap integrity check (not cryptographic).
uint64_t Fnv1a(const uint8_t* data, size_t size) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

class Writer {
 public:
  template <typename T>
  void Put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t offset = bytes_.size();
    bytes_.resize(offset + sizeof(T));
    std::memcpy(bytes_.data() + offset, &value, sizeof(T));
  }

  void PutDoubles(const double* values, size_t n) {
    const size_t offset = bytes_.size();
    bytes_.resize(offset + n * sizeof(double));
    std::memcpy(bytes_.data() + offset, values, n * sizeof(double));
  }

  void PutU64s(const std::vector<uint64_t>& values) {
    // An empty vector may hold a null data(), which memcpy must not see
    // (empty KLL levels are common).
    if (values.empty()) return;
    const size_t offset = bytes_.size();
    bytes_.resize(offset + values.size() * sizeof(uint64_t));
    std::memcpy(bytes_.data() + offset, values.data(),
                values.size() * sizeof(uint64_t));
  }

  std::vector<uint8_t> Finish() {
    const uint64_t checksum = Fnv1a(bytes_.data(), bytes_.size());
    Put(checksum);
    return std::move(bytes_);
  }

 private:
  std::vector<uint8_t> bytes_;
};

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {
    if (bytes.size() < sizeof(kMagic) + sizeof(uint64_t)) {
      throw std::invalid_argument("sketch buffer too small");
    }
    uint64_t stored;
    std::memcpy(&stored, bytes.data() + bytes.size() - sizeof(stored),
                sizeof(stored));
    if (Fnv1a(bytes.data(), bytes.size() - sizeof(stored)) != stored) {
      throw std::invalid_argument("sketch buffer checksum mismatch");
    }
    end_ = bytes.size() - sizeof(stored);
  }

  template <typename T>
  T Get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > end_) {
      throw std::invalid_argument("sketch buffer truncated");
    }
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::vector<double> GetDoubles(uint64_t count) {
    // Divide instead of multiplying: `count * sizeof(double)` can wrap for
    // a hostile count, sailing past the bound into a huge allocation.
    if (count > (end_ - pos_) / sizeof(double)) {
      throw std::invalid_argument("sketch buffer truncated");
    }
    std::vector<double> values(count);
    std::memcpy(values.data(), bytes_.data() + pos_,
                count * sizeof(double));
    pos_ += count * sizeof(double);
    return values;
  }

  std::vector<uint64_t> GetU64s(uint64_t count) {
    // Same hostile-count guard as GetDoubles: divide, never multiply.
    if (count > (end_ - pos_) / sizeof(uint64_t)) {
      throw std::invalid_argument("sketch buffer truncated");
    }
    std::vector<uint64_t> values(count);
    if (count == 0) return values;  // data() may be null; see PutU64s
    std::memcpy(values.data(), bytes_.data() + pos_,
                count * sizeof(uint64_t));
    pos_ += count * sizeof(uint64_t);
    return values;
  }

  void ExpectConsumed() const {
    if (pos_ != end_) {
      throw std::invalid_argument("sketch buffer has trailing bytes");
    }
  }

  size_t RemainingBytes() const { return end_ - pos_; }

 private:
  const std::vector<uint8_t>& bytes_;
  size_t pos_ = 0;
  size_t end_ = 0;
};

struct Header {
  SketchKind kind;
  SketchParams params;
  uint64_t counter_count;
};

void WriteHeader(Writer& writer, SketchKind kind, const SketchParams& params,
                 uint64_t counter_count) {
  for (uint8_t b : kMagic) writer.Put(b);
  writer.Put(kVersion);
  writer.Put(static_cast<uint32_t>(kind));
  writer.Put(static_cast<uint64_t>(params.rows));
  writer.Put(static_cast<uint64_t>(params.buckets));
  writer.Put(static_cast<uint32_t>(params.scheme));
  writer.Put(params.seed);
  writer.Put(counter_count);
}

Header ReadHeader(Reader& reader) {
  for (uint8_t expected : kMagic) {
    if (reader.Get<uint8_t>() != expected) {
      throw std::invalid_argument("not a sketch buffer (bad magic)");
    }
  }
  const uint32_t version = reader.Get<uint32_t>();
  if (version != kVersion) {
    throw std::invalid_argument("unsupported sketch format version");
  }
  Header h;
  h.kind = static_cast<SketchKind>(reader.Get<uint32_t>());
  h.params.rows = static_cast<size_t>(reader.Get<uint64_t>());
  h.params.buckets = static_cast<size_t>(reader.Get<uint64_t>());
  const uint32_t scheme = reader.Get<uint32_t>();
  if (scheme > static_cast<uint32_t>(XiScheme::kTabulation)) {
    throw std::invalid_argument("unknown xi scheme in sketch buffer");
  }
  h.params.scheme = static_cast<XiScheme>(scheme);
  h.params.seed = reader.Get<uint64_t>();
  h.counter_count = reader.Get<uint64_t>();
  return h;
}

template <typename SketchT>
std::vector<uint8_t> SerializeImpl(SketchKind kind, const SketchT& sketch) {
  Writer writer;
  WriteHeader(writer, kind, sketch.params(), sketch.counters().size());
  writer.PutDoubles(sketch.counters().data(), sketch.counters().size());
  return writer.Finish();
}

template <typename SketchT>
SketchT DeserializeImpl(SketchKind expected,
                        const std::vector<uint8_t>& buffer) {
  Reader reader(buffer);
  const Header h = ReadHeader(reader);
  if (h.kind != expected) {
    throw std::invalid_argument("sketch buffer holds a different kind");
  }
  // Hostile-buffer hardening: validate the declared shape against the kind
  // and the actual payload size BEFORE constructing the sketch. The
  // checksum only protects against accidental corruption — an attacker can
  // compute a valid FNV-1a for any forged header, so rows/buckets must not
  // be allowed to drive unbounded allocations or multiply into overflow.
  if (h.params.rows == 0) {
    throw std::invalid_argument("sketch buffer declares zero rows");
  }
  uint64_t expected_counters = h.params.rows;
  if (expected != SketchKind::kAgms) {  // AGMS ignores buckets
    if (h.params.buckets == 0) {
      throw std::invalid_argument("sketch buffer declares zero buckets");
    }
    if (__builtin_mul_overflow(static_cast<uint64_t>(h.params.rows),
                               static_cast<uint64_t>(h.params.buckets),
                               &expected_counters)) {
      throw std::invalid_argument("sketch buffer shape overflows");
    }
  }
  if (h.counter_count != expected_counters) {
    throw std::invalid_argument("sketch buffer counter count mismatch");
  }
  if (h.counter_count > reader.RemainingBytes() / sizeof(double)) {
    throw std::invalid_argument("sketch buffer truncated");
  }
  SketchT sketch(h.params);
  if (h.counter_count != sketch.counters().size()) {
    throw std::invalid_argument("sketch buffer counter count mismatch");
  }
  std::vector<double> counters = reader.GetDoubles(h.counter_count);
  reader.ExpectConsumed();
  sketch.LoadCounters(std::move(counters));
  return sketch;
}

}  // namespace

std::vector<uint8_t> SerializeSketch(const AgmsSketch& sketch) {
  return SerializeImpl(SketchKind::kAgms, sketch);
}
std::vector<uint8_t> SerializeSketch(const FagmsSketch& sketch) {
  return SerializeImpl(SketchKind::kFagms, sketch);
}
std::vector<uint8_t> SerializeSketch(const CountMinSketch& sketch) {
  return SerializeImpl(SketchKind::kCountMin, sketch);
}
std::vector<uint8_t> SerializeSketch(const FastCountSketch& sketch) {
  return SerializeImpl(SketchKind::kFastCount, sketch);
}
std::vector<uint8_t> SerializeSketch(const KmvSketch& sketch) {
  // KMV has no (rows, buckets, scheme) shape; map rows := k so the shared
  // header stays self-describing, and carry the retained minima as a u64
  // payload where the linear sketches carry f64 counters.
  Writer writer;
  SketchParams params;
  params.rows = sketch.k();
  params.buckets = 0;
  params.scheme = static_cast<XiScheme>(0);
  params.seed = sketch.seed();
  WriteHeader(writer, SketchKind::kKmv, params, sketch.retained());
  std::vector<uint64_t> minima(sketch.minima().begin(),
                               sketch.minima().end());
  writer.PutU64s(minima);
  return writer.Finish();
}

std::vector<uint8_t> SerializeSketch(const KllSketch& sketch) {
  Writer writer;
  SketchParams params;
  params.rows = sketch.k();
  params.buckets = 0;
  params.scheme = static_cast<XiScheme>(0);
  params.seed = sketch.seed();
  WriteHeader(writer, SketchKind::kKll, params, sketch.retained());
  writer.Put(sketch.n());
  writer.Put(sketch.min_item());
  writer.Put(sketch.max_item());
  writer.Put(sketch.compactions());
  writer.Put(sketch.rank_error_variance());
  writer.Put(static_cast<uint64_t>(sketch.levels().size()));
  for (const std::vector<uint64_t>& level : sketch.levels()) {
    writer.Put(static_cast<uint64_t>(level.size()));
    writer.PutU64s(level);
  }
  return writer.Finish();
}

std::vector<uint8_t> SerializeSketch(const KeyedKmvSketch& sketch) {
  Writer writer;
  SketchParams params;
  params.rows = sketch.k();
  params.buckets = 0;
  params.scheme = static_cast<XiScheme>(0);
  params.seed = sketch.seed();
  WriteHeader(writer, SketchKind::kKmvKeyed, params, sketch.retained());
  std::vector<uint64_t> triples;
  triples.reserve(sketch.retained() * 3);
  for (const KeyedKmvSketch::Entry& entry : sketch.Entries()) {
    triples.push_back(entry.hash);
    triples.push_back(entry.key);
    triples.push_back(entry.weight);
  }
  writer.PutU64s(triples);
  return writer.Finish();
}

SketchKind PeekSketchKind(const std::vector<uint8_t>& buffer) {
  Reader reader(buffer);
  return ReadHeader(reader).kind;
}

AgmsSketch DeserializeAgms(const std::vector<uint8_t>& buffer) {
  return DeserializeImpl<AgmsSketch>(SketchKind::kAgms, buffer);
}
FagmsSketch DeserializeFagms(const std::vector<uint8_t>& buffer) {
  return DeserializeImpl<FagmsSketch>(SketchKind::kFagms, buffer);
}
CountMinSketch DeserializeCountMin(const std::vector<uint8_t>& buffer) {
  return DeserializeImpl<CountMinSketch>(SketchKind::kCountMin, buffer);
}
FastCountSketch DeserializeFastCount(const std::vector<uint8_t>& buffer) {
  return DeserializeImpl<FastCountSketch>(SketchKind::kFastCount, buffer);
}

KmvSketch DeserializeKmv(const std::vector<uint8_t>& buffer) {
  Reader reader(buffer);
  const Header h = ReadHeader(reader);
  if (h.kind != SketchKind::kKmv) {
    throw std::invalid_argument("sketch buffer holds a different kind");
  }
  if (h.params.rows < 2) {
    throw std::invalid_argument("KMV buffer declares k < 2");
  }
  if (h.params.buckets != 0) {
    throw std::invalid_argument("KMV buffer declares nonzero buckets");
  }
  if (h.counter_count > h.params.rows) {
    throw std::invalid_argument("KMV buffer retains more than k values");
  }
  if (h.counter_count > reader.RemainingBytes() / sizeof(uint64_t)) {
    throw std::invalid_argument("sketch buffer truncated");
  }
  const std::vector<uint64_t> minima = reader.GetU64s(h.counter_count);
  reader.ExpectConsumed();
  KmvSketch sketch(h.params.rows, h.params.seed);
  sketch.LoadMinima(minima);  // rejects unsorted/duplicate payloads
  return sketch;
}

KllSketch DeserializeKll(const std::vector<uint8_t>& buffer) {
  Reader reader(buffer);
  const Header h = ReadHeader(reader);
  if (h.kind != SketchKind::kKll) {
    throw std::invalid_argument("sketch buffer holds a different kind");
  }
  if (h.params.rows < 8) {
    throw std::invalid_argument("KLL buffer declares k < 8");
  }
  if (h.params.buckets != 0) {
    throw std::invalid_argument("KLL buffer declares nonzero buckets");
  }
  const uint64_t n = reader.Get<uint64_t>();
  const uint64_t min_item = reader.Get<uint64_t>();
  const uint64_t max_item = reader.Get<uint64_t>();
  const uint64_t compactions = reader.Get<uint64_t>();
  const double rank_error_var = reader.Get<double>();
  const uint64_t num_levels = reader.Get<uint64_t>();
  if (num_levels == 0 || num_levels > 64) {
    throw std::invalid_argument("KLL buffer declares invalid level count");
  }
  std::vector<std::vector<uint64_t>> levels;
  levels.reserve(num_levels);
  uint64_t total = 0;
  for (uint64_t l = 0; l < num_levels; ++l) {
    const uint64_t count = reader.Get<uint64_t>();
    // Divide, never multiply: a hostile count must not wrap past the bound
    // into a huge allocation.
    if (count > reader.RemainingBytes() / sizeof(uint64_t)) {
      throw std::invalid_argument("sketch buffer truncated");
    }
    levels.push_back(reader.GetU64s(count));
    total += count;
  }
  if (total != h.counter_count) {
    throw std::invalid_argument("KLL buffer counter count mismatch");
  }
  reader.ExpectConsumed();
  KllSketch sketch(h.params.rows, h.params.seed);
  // LoadState enforces weight conservation (level counts × 2^l sum to n)
  // and moment sanity, rejecting structurally forged payloads.
  sketch.LoadState(n, min_item, max_item, compactions, rank_error_var,
                   std::move(levels));
  return sketch;
}

KeyedKmvSketch DeserializeKmvKeyed(const std::vector<uint8_t>& buffer) {
  Reader reader(buffer);
  const Header h = ReadHeader(reader);
  if (h.kind != SketchKind::kKmvKeyed) {
    throw std::invalid_argument("sketch buffer holds a different kind");
  }
  if (h.params.rows < 2) {
    throw std::invalid_argument("keyed KMV buffer declares k < 2");
  }
  if (h.params.buckets != 0) {
    throw std::invalid_argument("keyed KMV buffer declares nonzero buckets");
  }
  if (h.counter_count > h.params.rows) {
    throw std::invalid_argument("keyed KMV buffer retains more than k");
  }
  if (h.counter_count > reader.RemainingBytes() / (3 * sizeof(uint64_t))) {
    throw std::invalid_argument("sketch buffer truncated");
  }
  const std::vector<uint64_t> triples = reader.GetU64s(h.counter_count * 3);
  reader.ExpectConsumed();
  std::vector<KeyedKmvSketch::Entry> entries;
  entries.reserve(h.counter_count);
  for (uint64_t i = 0; i < h.counter_count; ++i) {
    entries.push_back(KeyedKmvSketch::Entry{
        triples[3 * i], triples[3 * i + 1], triples[3 * i + 2]});
  }
  KeyedKmvSketch sketch(h.params.rows, h.params.seed);
  sketch.LoadEntries(entries);  // rejects unsorted hashes / zero weights
  return sketch;
}

}  // namespace sketchsample
