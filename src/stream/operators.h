// Stream operators: push-path stages between the shed and the sketch.
//
// The sharded engine (src/stream/shard_engine.h) hands each worker's
// shed survivors to its sketch in whole chunks; an Operator is the seam
// where an extra stage — the fault injector of src/stream/faults.h — can
// sit on that path. Chunks, not tuples, cross the interface because
// per-tuple virtual dispatch would dominate the very quantity §VI-A
// measures: per-tuple sketch-update cost.
#ifndef SKETCHSAMPLE_STREAM_OPERATORS_H_
#define SKETCHSAMPLE_STREAM_OPERATORS_H_

#include <cstddef>
#include <cstdint>

namespace sketchsample {

/// Push-based operator interface.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Consumes a chunk of tuples.
  virtual void OnTuples(const uint64_t* values, size_t n) = 0;
};

}  // namespace sketchsample

#endif  // SKETCHSAMPLE_STREAM_OPERATORS_H_
