// The fused rounds 1+2 of a streamed run: one loop on the calling thread
// that aligns one partition's reads a batch at a time, cleans each
// batch, and hands it to a sink, so the aligned stage never exists on
// the DFS and at most one batch of aligned records is held at once.
//
// Batches are sliced at exactly PairedAlignerOptions::batch_size pairs,
// the boundary AlignPairs itself uses, so per-batch insert statistics
// and tie-break RNG seeds — and therefore every output record — are
// bit-identical to the monolithic AlignPairs call of the barriered
// round 1 (aligner.h, "Batch statistics"). The batch is also the unit
// of cancellation: the token is checked before each one starts.

#ifndef GESALL_GESALL_PIPELINE_NODE_H_
#define GESALL_GESALL_PIPELINE_NODE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "align/aligner.h"
#include "formats/fastq.h"
#include "formats/sam.h"
#include "util/cancel.h"
#include "util/executor.h"
#include "util/status.h"

namespace gesall {

/// \brief One batch of aligned (and possibly cleaned) SAM records.
struct RecordBatch {
  std::vector<SamRecord> records;
  int64_t index = 0;  // 0-based batch sequence number
};

/// \brief Queue telemetry of a stream edge. The loop has no queues, so
/// both fields stay 0; the benchmark's layer table still reads them.
struct StreamQueueStats {
  int64_t max_depth = 0;
  int64_t pop_stall_micros = 0;
};

/// \brief One named stream edge (see AlignCleanStreamStats::edges).
struct StreamEdgeStats {
  std::string name;
  StreamQueueStats queue;
};

/// \brief Everything a streamed align(+clean) run reports back.
struct AlignCleanStreamStats {
  SwKernelStats kernel;        // extension-kernel telemetry
  int64_t clean_clipped = 0;   // CleanSam clipped_overhangs
  int64_t clean_dropped = 0;   // CleanSam dropped_invalid
  int64_t batches = 0;         // batches aligned
  int64_t reads = 0;           // reads across those batches
  /// Wall time in AlignPairs + AddReplaceReadGroups + CleanSam, the
  /// wrapped programs of rounds 1 and 2; the sink's time is not in it.
  int64_t program_micros = 0;
  /// Always empty: the loop has no edges. Kept so the benchmark's layer
  /// table (bench/e2e/layers.cc) still compiles.
  std::vector<StreamEdgeStats> edges;
};

/// \brief Options for RunAlignCleanStream.
struct AlignCleanStreamOptions {
  /// Ignored: the loop runs on the calling thread. Kept so the
  /// benchmark's layer table (bench/e2e/layers.cc) still compiles.
  Executor* executor = nullptr;
  /// Checked before each batch; once flipped, the run returns its cause.
  std::shared_ptr<CancelToken> cancel;
  /// Apply AddReplaceReadGroups + CleanSam to each aligned batch (the
  /// round-2 map-side transform).
  bool clean = true;
  /// Required when clean is set: the pipeline header CleanSam clips
  /// against, and the read group to stamp.
  const SamHeader* header = nullptr;
  ReadGroup read_group;
};

/// \brief Aligns (and, with opts.clean, cleans) `interleaved` one batch
/// at a time on the calling thread, calling `sink` once per batch in
/// batch order. `interleaved` is consumed (records are moved into
/// batches). A non-OK sink status stops the run and is returned; so is
/// the cancel token's cause when it flips between batches. `stats` may
/// be null, in which case the run's telemetry is discarded. Output
/// records are bit-identical to AlignPairs over the whole vector (and,
/// with clean set, to the barriered round-2 map transform applied to
/// them).
Status RunAlignCleanStream(
    const GenomeIndex& index, const PairedAlignerOptions& options,
    std::vector<FastqRecord> interleaved, const AlignCleanStreamOptions& opts,
    const std::function<Status(RecordBatch*)>& sink,
    AlignCleanStreamStats* stats);

}  // namespace gesall

#endif  // GESALL_GESALL_PIPELINE_NODE_H_
