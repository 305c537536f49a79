#include "util/bgzf.h"

#include <zlib.h>

#include <chrono>
#include <cstring>

#include "util/executor.h"
#include "util/io.h"

namespace gesall {

namespace {

// First three magic bytes; the fourth is the method byte.
constexpr char kMagic[3] = {'G', 'B', 'Z'};
constexpr char kMethodDeflate = '1';
constexpr char kMethodStored = '0';

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status CheckLevel(int level) {
  if (level < -1 || level > 9) {
    return Status::InvalidArgument("BGZF compression level must be -1..9, got " +
                                   std::to_string(level));
  }
  return Status::OK();
}

// Validates magic + method of the block header at `data` (which must be
// at least kBgzfHeaderSize long — callers check length first so truncated
// headers get their own message).
Status CheckMagic(std::string_view data, size_t file_offset) {
  if (data.size() < kBgzfHeaderSize) {
    return Status::Corruption("truncated BGZF block header at offset " +
                              std::to_string(file_offset) + ": " +
                              std::to_string(data.size()) + " of " +
                              std::to_string(kBgzfHeaderSize) + " bytes");
  }
  if (std::memcmp(data.data(), kMagic, 3) != 0 ||
      (data[3] != kMethodDeflate && data[3] != kMethodStored)) {
    return Status::Corruption("bad BGZF magic at offset " +
                              std::to_string(file_offset));
  }
  return Status::OK();
}

Result<BgzfBlockInfo> PeekBlockAt(std::string_view data, size_t file_offset) {
  GESALL_RETURN_NOT_OK(CheckMagic(data, file_offset));
  BufferReader r(data.substr(4));
  uint32_t csize = 0, usize = 0;
  GESALL_RETURN_NOT_OK(r.GetU32(&csize));
  GESALL_RETURN_NOT_OK(r.GetU32(&usize));
  BgzfBlockInfo info;
  info.block_size = kBgzfHeaderSize + static_cast<size_t>(csize);
  info.raw_size = static_cast<size_t>(usize);
  info.stored = data[3] == kMethodStored;
  if (info.raw_size > kBgzfBlockSize) {
    return Status::Corruption(
        "BGZF block at offset " + std::to_string(file_offset) +
        " declares uncompressed size " + std::to_string(usize) +
        " > block limit " + std::to_string(kBgzfBlockSize));
  }
  if (info.stored && csize != usize) {
    return Status::Corruption(
        "stored BGZF block at offset " + std::to_string(file_offset) +
        " has mismatched sizes (" + std::to_string(csize) + " vs " +
        std::to_string(usize) + ")");
  }
  return info;
}

}  // namespace

Result<std::string> BgzfCompressBlock(std::string_view data, int level) {
  GESALL_RETURN_NOT_OK(CheckLevel(level));
  if (data.size() > kBgzfBlockSize) {
    return Status::InvalidArgument("BGZF block payload too large");
  }
  uLongf bound = compressBound(static_cast<uLong>(data.size()));
  std::string payload(bound, '\0');
  int rc = compress2(reinterpret_cast<Bytef*>(payload.data()), &bound,
                     reinterpret_cast<const Bytef*>(data.data()),
                     static_cast<uLong>(data.size()), level);
  if (rc != Z_OK) {
    return Status::Internal("zlib compress failed (rc=" + std::to_string(rc) +
                            ") on " + std::to_string(data.size()) +
                            "-byte BGZF block");
  }
  payload.resize(bound);

  // Incompressible fallback: when deflate does not shrink the payload,
  // store it verbatim so decode is a memcpy and the frame never grows
  // past raw size + header.
  const bool stored = payload.size() >= data.size();
  std::string block;
  const std::string_view out_payload = stored ? data : std::string_view(payload);
  block.reserve(kBgzfHeaderSize + out_payload.size());
  block.append(kMagic, 3);
  block.push_back(stored ? kMethodStored : kMethodDeflate);
  BufferWriter w(&block);
  w.PutU32(static_cast<uint32_t>(out_payload.size()));
  w.PutU32(static_cast<uint32_t>(data.size()));
  block.append(out_payload);
  return block;
}

Status BgzfCompressChunks(const std::vector<std::string_view>& chunks,
                          int level, Executor* executor, std::string* out,
                          BgzfCodecStats* stats) {
  GESALL_RETURN_NOT_OK(CheckLevel(level));
  const size_t n = chunks.size();
  std::vector<std::string> blocks(n);
  std::vector<Status> errors(n);
  std::vector<int64_t> micros(n, 0);
  auto deflate = [&](size_t i) {
    if (chunks[i].empty()) return;
    const int64_t t0 = NowMicros();
    Result<std::string> block = BgzfCompressBlock(chunks[i], level);
    micros[i] = NowMicros() - t0;
    if (block.ok()) {
      blocks[i] = block.MoveValueUnsafe();
    } else {
      errors[i] = block.status();
    }
  };
  if (executor != nullptr && n >= kBgzfMinParallelChunks) {
    TaskGroup group(executor);
    for (size_t i = 0; i < n; ++i) {
      group.Submit([&deflate, i] { deflate(i); });
    }
    group.Wait();
  } else {
    for (size_t i = 0; i < n; ++i) deflate(i);
  }
  for (const Status& error : errors) GESALL_RETURN_NOT_OK(error);
  for (size_t i = 0; i < n; ++i) {
    if (chunks[i].empty()) continue;
    out->append(blocks[i]);
    if (stats == nullptr) continue;
    stats->raw_bytes += static_cast<int64_t>(chunks[i].size());
    stats->stored_bytes += static_cast<int64_t>(blocks[i].size());
    stats->compress_micros += micros[i];
    ++stats->blocks;
    if (blocks[i][3] == kMethodStored) ++stats->stored_blocks;
  }
  return Status::OK();
}

Result<size_t> BgzfPeekBlockSize(std::string_view data) {
  GESALL_ASSIGN_OR_RETURN(BgzfBlockInfo info, PeekBlockAt(data, 0));
  return info.block_size;
}

Result<BgzfBlockInfo> BgzfPeekBlock(std::string_view data) {
  return PeekBlockAt(data, 0);
}

Status BgzfDecompressBlockInto(std::string_view data, size_t file_offset,
                               std::string* out, size_t* consumed) {
  GESALL_ASSIGN_OR_RETURN(BgzfBlockInfo info, PeekBlockAt(data, file_offset));
  const size_t csize = info.block_size - kBgzfHeaderSize;
  if (data.size() < info.block_size) {
    return Status::Corruption("truncated BGZF block payload at offset " +
                              std::to_string(file_offset) + ": " +
                              std::to_string(data.size() - kBgzfHeaderSize) +
                              " of " + std::to_string(csize) + " bytes");
  }
  if (info.stored) {
    out->assign(data.data() + kBgzfHeaderSize, csize);
  } else {
    out->resize(info.raw_size);
    uLongf out_len = static_cast<uLongf>(info.raw_size);
    int rc = uncompress(
        reinterpret_cast<Bytef*>(out->data()), &out_len,
        reinterpret_cast<const Bytef*>(data.data() + kBgzfHeaderSize),
        static_cast<uLong>(csize));
    if (rc != Z_OK || out_len != info.raw_size) {
      return Status::Corruption(
          "zlib uncompress failed (rc=" + std::to_string(rc) +
          ") in BGZF block at offset " + std::to_string(file_offset));
    }
  }
  if (consumed != nullptr) *consumed = info.block_size;
  return Status::OK();
}

Result<std::string> BgzfDecompressBlock(std::string_view data,
                                        size_t* consumed) {
  std::string out;
  GESALL_RETURN_NOT_OK(BgzfDecompressBlockInto(data, 0, &out, consumed));
  return out;
}

Status BgzfReadRange(std::string_view compressed, size_t offset,
                     size_t length, std::string* out,
                     int64_t* decompress_micros) {
  size_t off = 0;       // file offset of the next block header
  size_t raw_pos = 0;   // uncompressed position of that block's first byte
  std::string scratch;
  while (length > 0 && off < compressed.size()) {
    GESALL_ASSIGN_OR_RETURN(BgzfBlockInfo info,
                            PeekBlockAt(compressed.substr(off), off));
    if (off + info.block_size > compressed.size()) {
      return Status::Corruption("truncated BGZF block payload at offset " +
                                std::to_string(off));
    }
    if (raw_pos + info.raw_size > offset) {
      // Covering block: this is the only case that pays for inflate.
      const int64_t t0 = NowMicros();
      GESALL_RETURN_NOT_OK(BgzfDecompressBlockInto(compressed.substr(off),
                                                   off, &scratch, nullptr));
      if (decompress_micros != nullptr) {
        *decompress_micros += NowMicros() - t0;
      }
      if (scratch.size() != info.raw_size) {
        return Status::Corruption(
            "BGZF block at offset " + std::to_string(off) + " inflated to " +
            std::to_string(scratch.size()) + " bytes, header declared " +
            std::to_string(info.raw_size));
      }
      const size_t intra = offset > raw_pos ? offset - raw_pos : 0;
      const size_t take = std::min(length, scratch.size() - intra);
      out->append(scratch, intra, take);
      offset += take;
      length -= take;
    }
    raw_pos += info.raw_size;
    off += info.block_size;
  }
  if (length > 0) {
    return Status::OutOfRange("BGZF range read past end of stream");
  }
  return Status::OK();
}

uint64_t BgzfWriter::Tell() const {
  return (static_cast<uint64_t>(out_->size()) << 16) |
         (pending_.size() & 0xffff);
}

Status BgzfWriter::Append(std::string_view data) {
  while (!data.empty()) {
    size_t room = kBgzfBlockSize - pending_.size();
    size_t take = std::min(room, data.size());
    pending_.append(data.substr(0, take));
    data.remove_prefix(take);
    if (pending_.size() == kBgzfBlockSize) {
      GESALL_RETURN_NOT_OK(Flush());
    }
  }
  return Status::OK();
}

Status BgzfWriter::Flush() {
  if (pending_.empty()) return Status::OK();
  GESALL_RETURN_NOT_OK(
      BgzfCompressChunks({pending_}, level_, nullptr, out_, &stats_));
  pending_.clear();
  return Status::OK();
}

Status BgzfReader::Seek(uint64_t virtual_offset) {
  block_offset_ = static_cast<size_t>(virtual_offset >> 16);
  intra_ = static_cast<size_t>(virtual_offset & 0xffff);
  loaded_ = false;
  if (block_offset_ > data_.size()) {
    return Status::OutOfRange("seek past end of BGZF stream");
  }
  if (block_offset_ < data_.size()) {
    GESALL_RETURN_NOT_OK(EnsureBlock());
    if (intra_ > block_.size()) {
      return Status::OutOfRange("intra-block offset past block end");
    }
  } else if (intra_ != 0) {
    return Status::OutOfRange("seek past end of BGZF stream");
  }
  return Status::OK();
}

uint64_t BgzfReader::Tell() const {
  return (static_cast<uint64_t>(block_offset_) << 16) | (intra_ & 0xffff);
}

Status BgzfReader::EnsureBlock() {
  if (loaded_) return Status::OK();
  size_t consumed = 0;
  GESALL_RETURN_NOT_OK(BgzfDecompressBlockInto(
      data_.substr(block_offset_), block_offset_, &block_, &consumed));
  next_offset_ = block_offset_ + consumed;
  loaded_ = true;
  return Status::OK();
}

bool BgzfReader::AtEnd() {
  if (loaded_ && intra_ < block_.size()) return false;
  if (!loaded_) return block_offset_ >= data_.size();
  // Current block exhausted; at end iff no further block.
  return next_offset_ >= data_.size();
}

Status BgzfReader::Read(size_t n, std::string* out) {
  out->clear();
  out->reserve(n);
  while (n > 0) {
    if (block_offset_ >= data_.size()) {
      return Status::OutOfRange("read past end of BGZF stream");
    }
    GESALL_RETURN_NOT_OK(EnsureBlock());
    if (intra_ >= block_.size()) {
      block_offset_ = next_offset_;
      intra_ = 0;
      loaded_ = false;
      continue;
    }
    size_t take = std::min(n, block_.size() - intra_);
    out->append(block_, intra_, take);
    intra_ += take;
    n -= take;
  }
  return Status::OK();
}

Result<std::vector<std::pair<size_t, size_t>>> BgzfListBlocks(
    std::string_view compressed) {
  std::vector<std::pair<size_t, size_t>> spans;
  size_t off = 0;
  while (off < compressed.size()) {
    GESALL_ASSIGN_OR_RETURN(BgzfBlockInfo info,
                            PeekBlockAt(compressed.substr(off), off));
    if (off + info.block_size > compressed.size()) {
      return Status::Corruption("truncated trailing BGZF block");
    }
    spans.emplace_back(off, info.block_size);
    off += info.block_size;
  }
  return spans;
}

}  // namespace gesall
