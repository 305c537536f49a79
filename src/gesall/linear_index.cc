#include "gesall/linear_index.h"

#include <algorithm>

#include "formats/bam.h"
#include "util/bgzf.h"
#include "util/io.h"

namespace gesall {

Result<LinearBamIndex> LinearBamIndex::Build(std::string_view bam) {
  LinearBamIndex index;
  GESALL_ASSIGN_OR_RETURN(size_t records_start, BamRecordsStartOffset(bam));
  GESALL_ASSIGN_OR_RETURN(auto blocks, BgzfListBlocks(bam));

  for (const auto& [chunk_offset, chunk_size] : blocks) {
    if (chunk_offset < records_start) continue;  // header chunk
    GESALL_ASSIGN_OR_RETURN(
        std::string payload,
        BgzfDecompressBlock(bam.substr(chunk_offset, chunk_size), nullptr));
    size_t intra = 0;
    while (intra < payload.size()) {
      uint64_t voffset = (static_cast<uint64_t>(chunk_offset) << 16) | intra;
      GESALL_ASSIGN_OR_RETURN(SamRecord rec,
                              DecodeBamRecord(payload, &intra));
      ++index.record_count_;
      if (rec.IsUnmapped()) continue;  // unmapped tail is not indexed
      int64_t w = rec.pos / kWindowBases;
      while (static_cast<int64_t>(index.window_offsets_.size()) <= w) {
        index.window_offsets_.push_back(voffset);
      }
      index.max_span_ =
          std::max(index.max_span_, CigarReferenceLength(rec.cigar));
      index.end_offset_ =
          (static_cast<uint64_t>(chunk_offset) << 16) | intra;
    }
  }
  if (index.window_offsets_.empty() && index.end_offset_ == 0) {
    index.end_offset_ = static_cast<uint64_t>(records_start) << 16;
  }
  return index;
}

uint64_t LinearBamIndex::LowerBoundOffset(int64_t pos) const {
  int64_t effective = std::max<int64_t>(0, pos - max_span_);
  int64_t w = effective / kWindowBases;
  if (w >= static_cast<int64_t>(window_offsets_.size())) return end_offset_;
  return window_offsets_[w];
}

uint64_t LinearBamIndex::UpperBoundOffset(int64_t pos) const {
  // Conservative: include every record starting in pos's window.
  int64_t w = pos / kWindowBases + 1;
  if (w >= static_cast<int64_t>(window_offsets_.size())) return end_offset_;
  return window_offsets_[w];
}

std::string LinearBamIndex::Serialize() const {
  std::string out;
  BufferWriter w(&out);
  w.PutU64(window_offsets_.size());
  for (uint64_t off : window_offsets_) w.PutU64(off);
  w.PutU64(end_offset_);
  w.PutI64(record_count_);
  w.PutI64(max_span_);
  return out;
}

Result<LinearBamIndex> LinearBamIndex::Deserialize(const std::string& data) {
  LinearBamIndex index;
  BufferReader r(data);
  // A sidecar is its window count, the windows and three 8-byte fields.
  // The count is read back from disk, so it must account for every byte
  // before it sizes the window vector; a truncated sidecar fails here too.
  uint64_t n = 0;
  if (!r.GetU64(&n).ok() || n > r.remaining() / 8 ||
      r.remaining() != 8 * (n + 3)) {
    return Status::Corruption("linear index sidecar of " +
                              std::to_string(data.size()) +
                              " bytes does not hold its " +
                              std::to_string(n) + " windows");
  }
  index.window_offsets_.resize(n);
  for (auto& off : index.window_offsets_) {
    GESALL_RETURN_NOT_OK(r.GetU64(&off));
  }
  GESALL_RETURN_NOT_OK(r.GetU64(&index.end_offset_));
  GESALL_RETURN_NOT_OK(r.GetI64(&index.record_count_));
  GESALL_RETURN_NOT_OK(r.GetI64(&index.max_span_));
  return index;
}

Result<std::vector<SamRecord>> ReadBamRegion(std::string_view bam,
                                             const LinearBamIndex& index,
                                             int64_t start, int64_t end) {
  std::vector<SamRecord> out;
  uint64_t lo = index.LowerBoundOffset(start);
  uint64_t hi = index.UpperBoundOffset(end);
  if (lo >= hi) return out;

  size_t chunk_offset = static_cast<size_t>(lo >> 16);
  size_t intra = static_cast<size_t>(lo & 0xffff);
  const size_t hi_chunk = static_cast<size_t>(hi >> 16);
  const size_t hi_intra = static_cast<size_t>(hi & 0xffff);

  while (chunk_offset < bam.size()) {
    if (chunk_offset > hi_chunk) break;
    size_t consumed = 0;
    GESALL_ASSIGN_OR_RETURN(
        std::string payload,
        BgzfDecompressBlock(bam.substr(chunk_offset), &consumed));
    size_t stop = chunk_offset == hi_chunk ? hi_intra : payload.size();
    while (intra < stop) {
      GESALL_ASSIGN_OR_RETURN(SamRecord rec,
                              DecodeBamRecord(payload, &intra));
      if (rec.IsUnmapped()) continue;
      if (rec.pos >= end) continue;
      if (rec.AlignmentEnd() <= start) continue;
      out.push_back(std::move(rec));
    }
    chunk_offset += consumed;
    intra = 0;
  }
  return out;
}

}  // namespace gesall
