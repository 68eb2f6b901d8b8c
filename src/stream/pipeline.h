// Ingest chunk granularity shared by the sharded engine
// (src/stream/shard_engine.h) and the benchmarks that drive it.
#ifndef SKETCHSAMPLE_STREAM_PIPELINE_H_
#define SKETCHSAMPLE_STREAM_PIPELINE_H_

#include <cstddef>

namespace sketchsample {

/// Default pump granularity: big enough to amortize the per-chunk virtual
/// calls and fill the sketches' kUpdateBatchBlock blocks, small enough that
/// chunk scratch stays cache-resident.
inline constexpr size_t kPipelineChunk = 1024;

}  // namespace sketchsample

#endif  // SKETCHSAMPLE_STREAM_PIPELINE_H_
