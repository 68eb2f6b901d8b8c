// In-memory span recorder for traced benchmark runs. Spans are recorded from
// the benchmark's own code around each call into a layer of the library;
// nothing inside the library is instrumented. A null Tracer* means tracing
// is off, and every Span is then a single branch.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";  ///< a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;      ///< 0 = root
  uint64_t request_id = 0;  ///< shared by the spans of one request
};

class Tracer {
 public:
  uint64_t Begin() {
    std::lock_guard<std::mutex> lock(mutex_);
    return ++next_id_;
  }
  void Record(const SpanRecord& span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }

  /// Writes one JSON object per span; false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const SpanRecord& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"id\":%llu,\"parent\":%llu,\"request_id\":%llu}\n",
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request_id));
    }
    return std::fclose(f) == 0;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  uint64_t next_id_ = 0;
};

/// RAII span; records on destruction when `tracer` is non-null.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t parent = 0,
       uint64_t request_id = 0)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    record_.name = name;
    record_.id = tracer_->Begin();
    record_.parent = parent;
    record_.request_id = request_id;
    record_.start_ns = NowNs();
  }
  ~Span() {
    if (tracer_ == nullptr) return;
    record_.end_ns = NowNs();
    tracer_->Record(record_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return record_.id; }

 private:
  Tracer* tracer_;
  SpanRecord record_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
