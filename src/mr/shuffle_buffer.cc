#include "mr/shuffle_buffer.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>

#include "util/crc32c.h"
#include "util/executor.h"

namespace gesall {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Per-64KiB-chunk CRC32C sums over a partition arena's stored extents,
// in block order — the spill-file byte stream under IFile-style chunk
// checksums. Chunks never span extents, so verification recomputes the
// identical chunking from the same arena. Returns the covered bytes.
int64_t ComputeChunkCrcs(const Arena& arena, std::vector<uint32_t>* crcs) {
  crcs->clear();
  int64_t covered = 0;
  for (const Arena::Extent& extent : arena.extents()) {
    for (size_t off = 0; off < extent.size;
         off += ShuffleBuffer::kChecksumChunkBytes) {
      const size_t n = std::min(ShuffleBuffer::kChecksumChunkBytes,
                                extent.size - off);
      crcs->push_back(ExtendCrc32c(0, extent.data + off, n));
      covered += static_cast<int64_t>(n);
    }
  }
  return covered;
}

// Compressed-mode analog: per-64KiB-chunk sums over each sealed run's
// compressed frame, in run order. Chunks never span runs.
int64_t ComputeCompressedChunkCrcs(
    const std::vector<CompressedShuffleRun>& cruns,
    std::vector<uint32_t>* crcs) {
  crcs->clear();
  int64_t covered = 0;
  for (const CompressedShuffleRun& crun : cruns) {
    std::string_view bytes = crun.bytes;
    for (size_t off = 0; off < bytes.size();
         off += ShuffleBuffer::kChecksumChunkBytes) {
      const size_t n = std::min(ShuffleBuffer::kChecksumChunkBytes,
                                bytes.size() - off);
      crcs->push_back(ExtendCrc32c(0, bytes.data() + off, n));
      covered += static_cast<int64_t>(n);
    }
  }
  return covered;
}

// [u32 klen][u32 vlen][key][value], little-endian lengths — the record
// framing of compressed spill runs. Records may straddle BGZF blocks.
Status AppendFramedRecord(BgzfWriter* w, std::string_view key,
                          std::string_view value) {
  char hdr[8];
  const uint32_t klen = static_cast<uint32_t>(key.size());
  const uint32_t vlen = static_cast<uint32_t>(value.size());
  for (int i = 0; i < 4; ++i) {
    hdr[i] = static_cast<char>((klen >> (8 * i)) & 0xff);
    hdr[4 + i] = static_cast<char>((vlen >> (8 * i)) & 0xff);
  }
  GESALL_RETURN_NOT_OK(w->Append(std::string_view(hdr, 8)));
  GESALL_RETURN_NOT_OK(w->Append(key));
  return w->Append(value);
}

}  // namespace

bool CompressedShuffleRunReader::NextBlock() {
  if (file_off_ >= data_.size()) return false;
  size_t consumed = 0;
  const int64_t t0 = NowMicros();
  status_ = BgzfDecompressBlockInto(data_.substr(file_off_), file_off_,
                                    &scratch_, &consumed);
  decompress_micros_ += NowMicros() - t0;
  if (!status_.ok()) return false;
  file_off_ += consumed;
  pos_ = 0;
  return true;
}

bool CompressedShuffleRunReader::ReadBytes(size_t n, char* dst) {
  while (n > 0) {
    if (pos_ == scratch_.size()) {
      if (!NextBlock()) {
        if (status_.ok()) {
          status_ = Status::Corruption(
              "truncated record in compressed shuffle run at stream offset " +
              std::to_string(file_off_));
        }
        return false;
      }
      continue;
    }
    const size_t take = std::min(n, scratch_.size() - pos_);
    std::memcpy(dst, scratch_.data() + pos_, take);
    pos_ += take;
    dst += take;
    n -= take;
  }
  return true;
}

bool CompressedShuffleRunReader::ReadSpan(size_t n, std::string_view* out) {
  if (scratch_.size() - pos_ >= n) {
    *out = std::string_view(scratch_).substr(pos_, n);
    pos_ += n;
    return true;
  }
  // Straddles the block cut: stitch through the carry buffer. The whole
  // span lands in carry_, so the key/value views inside it survive the
  // scratch_ reloads below (until the next Advance()). n comes from an
  // unchecked record header, so carry_ grows only as bytes arrive: a
  // length that overruns the run fails as truncated, never as a
  // multi-GiB reservation.
  carry_.clear();
  while (n > 0) {
    if (pos_ == scratch_.size()) {
      if (!NextBlock()) {
        if (status_.ok()) {
          status_ = Status::Corruption(
              "truncated record in compressed shuffle run at stream offset " +
              std::to_string(file_off_));
        }
        return false;
      }
      continue;
    }
    const size_t take = std::min(n, scratch_.size() - pos_);
    carry_.append(scratch_, pos_, take);
    pos_ += take;
    n -= take;
  }
  *out = carry_;
  return true;
}

const ShuffleEntry* CompressedShuffleRunReader::Advance() {
  if (!status_.ok()) return nullptr;
  if (pos_ == scratch_.size() && file_off_ >= data_.size()) {
    return nullptr;  // clean end between records
  }
  // The 8-byte header is parsed into locals so a header straddling a
  // block cut never shares the carry buffer with the payload span.
  char hdr[8];
  if (!ReadBytes(8, hdr)) return nullptr;
  uint32_t klen = 0, vlen = 0;
  for (int i = 0; i < 4; ++i) {
    klen |= static_cast<uint32_t>(static_cast<unsigned char>(hdr[i]))
            << (8 * i);
    vlen |= static_cast<uint32_t>(static_cast<unsigned char>(hdr[4 + i]))
            << (8 * i);
  }
  // Key and value are served as ONE span, so reading the value can never
  // reload the block under the key's view.
  std::string_view span;
  if (!ReadSpan(static_cast<size_t>(klen) + vlen, &span)) return nullptr;
  entry_.key = span.substr(0, klen);
  entry_.value = span.substr(klen);
  entry_.prefix = ShuffleKeyWord(entry_.key, 0);
  entry_.prefix2 = ShuffleKeyWord(entry_.key, 8);
  return &entry_;
}

ShuffleBuffer::ShuffleBuffer(int num_partitions, int64_t sort_buffer_bytes,
                             bool checksum, bool compress, int compress_level,
                             Executor* executor)
    : sort_buffer_bytes_(sort_buffer_bytes), checksum_(checksum),
      compress_(compress), compress_level_(compress_level),
      executor_(executor), parts_(num_partitions > 0 ? num_partitions : 0) {}

Status ShuffleBuffer::Add(int p, std::string_view key,
                          std::string_view value) {
  Partition& part = parts_[p];
  std::string_view stored_key = part.arena.Append(key);
  std::string_view stored_value = part.arena.Append(value);
  part.pending.push_back(MakeShuffleEntry(stored_key, stored_value));
  // Same accounting as the pre-arena engine: key + value + 16 bytes of
  // per-record overhead against the sort buffer.
  buffered_bytes_ += static_cast<int64_t>(key.size() + value.size() + 16);
  if (buffered_bytes_ > sort_buffer_bytes_) return SpillAll();
  return Status::OK();
}

Status ShuffleBuffer::SpillAll() {
  std::vector<Partition*> dirty;
  for (auto& part : parts_) {
    if (!part.pending.empty()) dirty.push_back(&part);
  }
  buffered_bytes_ = 0;
  if (dirty.empty()) return Status::OK();
  ++stats_.spills;
  // Compressed spills are cpu-bound (sort + deflate) and touch only
  // their own partition, so fan them out when an executor is armed.
  if (compress_ && executor_ != nullptr && dirty.size() > 1) {
    std::vector<Status> statuses(dirty.size());
    TaskGroup group(executor_);
    for (size_t i = 0; i < dirty.size(); ++i) {
      Partition* part = dirty[i];
      Status* st = &statuses[i];
      group.Submit([this, part, st] { *st = SpillPartition(part); });
    }
    group.Wait();
    for (const Status& st : statuses) GESALL_RETURN_NOT_OK(st);
    return Status::OK();
  }
  for (Partition* part : dirty) GESALL_RETURN_NOT_OK(SpillPartition(part));
  return Status::OK();
}

Status ShuffleBuffer::CompressRun(Partition* part, const ShuffleRun& run) {
  CompressedShuffleRun crun;
  BgzfWriter w(&crun.bytes, compress_level_);
  for (const ShuffleEntry& e : run) {
    GESALL_RETURN_NOT_OK(AppendFramedRecord(&w, e.key, e.value));
    crun.payload_bytes += static_cast<int64_t>(e.key.size() + e.value.size());
  }
  GESALL_RETURN_NOT_OK(w.Flush());
  crun.records = static_cast<int64_t>(run.size());
  crun.raw_bytes = w.stats().raw_bytes;
  part->codec.raw_bytes += w.stats().raw_bytes;
  part->codec.stored_bytes += w.stats().stored_bytes;
  part->codec.blocks += w.stats().blocks;
  part->codec.stored_blocks += w.stats().stored_blocks;
  part->codec.compress_micros += w.stats().compress_micros;
  part->cruns.push_back(std::move(crun));
  return Status::OK();
}

Status ShuffleBuffer::SpillPartition(Partition* part) {
  // Stable sort keeps equal keys in emission order — the engine's
  // documented (map task, emission order) tie-break.
  std::stable_sort(part->pending.begin(), part->pending.end(),
                   ShuffleKeyLess);
  if (compress_) {
    GESALL_RETURN_NOT_OK(CompressRun(part, part->pending));
    part->pending.clear();
    // The raw bytes now live only in the compressed frame; releasing
    // the arena is the memory win of compressed spills.
    part->arena.Clear();
    return Status::OK();
  }
  part->runs.push_back(std::move(part->pending));
  part->pending.clear();
  return Status::OK();
}

Status ShuffleBuffer::Finish() {
  GESALL_RETURN_NOT_OK(SpillAll());
  for (auto& part : parts_) {
    // No run is merged or rewritten, so the sums cover every spill run
    // exactly as the reduce side reads it.
    if (checksum_) SealChecksums(&part);
    // Fold the partition-local codec accounting (kept local so parallel
    // spills never contend) into the task stats.
    stats_.spill_bytes_raw += part.codec.raw_bytes;
    stats_.spill_bytes_compressed += part.codec.stored_bytes;
    stats_.compress_micros += part.codec.compress_micros;
    part.codec = BgzfCodecStats{};
  }
  return Status::OK();
}

void ShuffleBuffer::SealChecksums(Partition* part) {
  part->sealed_bytes =
      compress_ ? ComputeCompressedChunkCrcs(part->cruns, &part->chunk_crcs)
                : ComputeChunkCrcs(part->arena, &part->chunk_crcs);
  stats_.checksummed_bytes += part->sealed_bytes;
}

Status ShuffleBuffer::VerifyPartition(int p) const {
  const Partition& part = parts_[p];
  if (!checksum_ || part.sealed_bytes < 0) return Status::OK();
  std::vector<uint32_t> actual;
  const int64_t covered =
      compress_ ? ComputeCompressedChunkCrcs(part.cruns, &actual)
                : ComputeChunkCrcs(part.arena, &actual);
  if (covered != part.sealed_bytes || actual.size() != part.chunk_crcs.size()) {
    return Status::Corruption(
        "shuffle partition " + std::to_string(p) +
        " changed size after sealing: " + std::to_string(covered) +
        " bytes vs " + std::to_string(part.sealed_bytes) + " sealed");
  }
  for (size_t c = 0; c < actual.size(); ++c) {
    if (actual[c] != part.chunk_crcs[c]) {
      return Status::Corruption(
          "shuffle chunk checksum mismatch: partition " + std::to_string(p) +
          " chunk " + std::to_string(c));
    }
  }
  return Status::OK();
}

}  // namespace gesall
