#include "gesall/pipeline_node.h"

#include <algorithm>
#include <utility>

#include "analysis/steps.h"
#include "util/stopwatch.h"

namespace gesall {

Status RunAlignCleanStream(
    const GenomeIndex& index, const PairedAlignerOptions& options,
    std::vector<FastqRecord> interleaved, const AlignCleanStreamOptions& opts,
    const std::function<Status(RecordBatch*)>& sink,
    AlignCleanStreamStats* stats) {
  if (opts.clean && opts.header == nullptr) {
    return Status::InvalidArgument(
        "RunAlignCleanStream: clean requires a header");
  }
  AlignCleanStreamStats discarded;  // sinkhole when the caller passes null
  if (stats == nullptr) stats = &discarded;

  // One scratch pools DP matrices, candidate lists and the vertical-SIMD
  // lane buffers across batches, so steady-state batches allocate
  // almost nothing.
  PairedEndAligner aligner(index, options);
  PairedAlignScratch scratch;
  const size_t batch_reads =
      2 * static_cast<size_t>(std::max(1, options.batch_size));
  std::vector<FastqRecord> reads;
  Status status = Status::OK();
  for (size_t begin = 0; begin < interleaved.size(); begin += batch_reads) {
    if (opts.cancel != nullptr && opts.cancel->cancelled()) {
      status = opts.cancel->status();
      break;
    }
    const size_t end = std::min(interleaved.size(), begin + batch_reads);
    reads.clear();
    for (size_t i = begin; i < end; ++i) {
      reads.push_back(std::move(interleaved[i]));
    }

    RecordBatch batch;
    batch.index = static_cast<int64_t>(begin / batch_reads);
    Stopwatch program;
    aligner.AlignPairs(reads, &scratch, &batch.records);
    if (opts.clean) {
      // A fresh header copy per batch mirrors the per-split copy of the
      // barriered CleaningMapper; the outputs are identical either way.
      SamHeader local = *opts.header;
      status = AddReplaceReadGroups(opts.read_group, &local, &batch.records);
      if (!status.ok()) break;
      CleanSamStats cs = CleanSam(local, &batch.records);
      stats->clean_clipped += cs.clipped_overhangs;
      stats->clean_dropped += cs.dropped_invalid;
    }
    stats->program_micros +=
        static_cast<int64_t>(program.ElapsedSeconds() * 1e6);
    stats->batches += 1;
    stats->reads += static_cast<int64_t>(reads.size());

    status = sink(&batch);
    if (!status.ok()) break;
  }
  stats->kernel += scratch.read.stats;
  return status;
}

}  // namespace gesall
