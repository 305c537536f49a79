#include "util/bgzf.h"

#include <zlib.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>

#include "util/executor.h"
#include "util/io.h"

namespace gesall {

namespace {

// First three magic bytes; the fourth is the method byte.
constexpr char kMagic[3] = {'G', 'B', 'Z'};
constexpr char kMethodDeflate = '1';
constexpr char kMethodStored = '0';
constexpr char kMethodSplit = '2';

// A split payload opens with u32 main_raw | u32 side_raw | u32 main_csize.
constexpr size_t kSplitTableSize = 12;

// LEB128 bytes of a u32, the widest value a span table holds.
constexpr size_t kMaxVarintBytes = 5;

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
  if (!BgzfHasBlockMagic(data)) {
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
  info.split = data[3] == kMethodSplit;
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

void PutVarint(uint32_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

// Reads one LEB128 u32 from data[*pos, end); false when it is truncated
// or wider than a u32.
bool GetVarint(std::string_view data, size_t end, size_t* pos, uint32_t* v) {
  uint64_t value = 0;
  for (size_t i = 0; i < kMaxVarintBytes && *pos < end; ++i) {
    const uint8_t byte = static_cast<uint8_t>(data[(*pos)++]);
    value |= static_cast<uint64_t>(byte & 0x7f) << (7 * i);
    if ((byte & 0x80) == 0) {
      if (value > UINT32_MAX) return false;
      *v = static_cast<uint32_t>(value);
      return true;
    }
  }
  return false;
}

// Appends `in` to `*out` as one zlib stream.
Status DeflateStream(std::string_view in, int level, int strategy,
                     std::string* out) {
  z_stream zs{};
  int rc = deflateInit2(&zs, level, Z_DEFLATED, 15, 8, strategy);
  if (rc != Z_OK) {
    return Status::Internal("zlib deflateInit2 failed (rc=" +
                            std::to_string(rc) + ")");
  }
  const size_t at = out->size();
  out->resize(at + deflateBound(&zs, static_cast<uLong>(in.size())));
  zs.next_in = reinterpret_cast<Bytef*>(const_cast<char*>(in.data()));
  zs.avail_in = static_cast<uInt>(in.size());
  zs.next_out = reinterpret_cast<Bytef*>(out->data() + at);
  zs.avail_out = static_cast<uInt>(out->size() - at);
  rc = deflate(&zs, Z_FINISH);
  out->resize(at + zs.total_out);
  deflateEnd(&zs);
  if (rc != Z_STREAM_END) {
    return Status::Internal("zlib deflate failed (rc=" + std::to_string(rc) +
                            ") on " + std::to_string(in.size()) + " bytes");
  }
  return Status::OK();
}

// Inflates `in`, which must be exactly one zlib stream of `raw_size`
// bytes with nothing after it, into `*out`; `what` names the stream in
// the error.
Status InflateStream(std::string_view in, size_t raw_size, const char* what,
                     size_t file_offset, std::string* out) {
  out->resize(raw_size);
  uLongf out_len = static_cast<uLongf>(raw_size);
  uLong in_len = static_cast<uLong>(in.size());
  const int rc = uncompress2(reinterpret_cast<Bytef*>(out->data()), &out_len,
                             reinterpret_cast<const Bytef*>(in.data()),
                             &in_len);
  if (rc != Z_OK || out_len != raw_size || in_len != in.size()) {
    return Status::Corruption(
        "zlib uncompress failed (rc=" + std::to_string(rc) +
        ") in BGZF block at offset " + std::to_string(file_offset) + ": " +
        what + " stream of " + std::to_string(in.size()) + " bytes gave " +
        std::to_string(out_len) + " of " + std::to_string(raw_size) +
        " bytes from " + std::to_string(in_len));
  }
  return Status::OK();
}

// Decodes a split payload (see bgzf.h) into the `raw_size` bytes of its
// chunk. Every size and span is checked against the block before it is
// used, so a hostile payload fails with Corruption, never over-reads.
Status InflateSplit(std::string_view payload, size_t raw_size,
                    size_t file_offset, std::string* out) {
  auto corrupt = [file_offset](const std::string& what) {
    return Status::Corruption("split BGZF block at offset " +
                              std::to_string(file_offset) + ": " + what);
  };
  if (payload.size() < kSplitTableSize) {
    return corrupt("payload of " + std::to_string(payload.size()) +
                   " bytes has no stream table");
  }
  BufferReader r(payload);
  uint32_t main_raw = 0, side_raw = 0, main_csize = 0;
  GESALL_RETURN_NOT_OK(r.GetU32(&main_raw));
  GESALL_RETURN_NOT_OK(r.GetU32(&side_raw));
  GESALL_RETURN_NOT_OK(r.GetU32(&main_csize));
  if (main_csize > payload.size() - kSplitTableSize) {
    return corrupt("main stream of " + std::to_string(main_csize) +
                   " bytes overruns the " + std::to_string(payload.size()) +
                   "-byte payload");
  }
  // The side stream is the block's span bytes; the main stream is the
  // rest plus a table of at most one varint count and two varints per
  // span, and every span holds at least one byte.
  const size_t outside = raw_size - std::min<size_t>(side_raw, raw_size);
  const size_t table_size = main_raw - std::min<size_t>(main_raw, outside);
  if (side_raw > raw_size || main_raw < outside ||
      table_size > kMaxVarintBytes * (1 + 2 * static_cast<size_t>(side_raw))) {
    return corrupt("stream sizes " + std::to_string(main_raw) + " + " +
                   std::to_string(side_raw) + " do not add up to the " +
                   std::to_string(raw_size) + "-byte block");
  }
  thread_local std::string main_bytes;
  thread_local std::string side_bytes;
  GESALL_RETURN_NOT_OK(InflateStream(
      payload.substr(kSplitTableSize, main_csize), main_raw, "main",
      file_offset, &main_bytes));
  GESALL_RETURN_NOT_OK(
      InflateStream(payload.substr(kSplitTableSize + main_csize), side_raw,
                    "side", file_offset, &side_bytes));

  out->resize(raw_size);
  size_t pos = 0;          // next span table byte
  size_t at = 0;           // next output byte
  size_t body = table_size;  // next outside byte in main_bytes
  size_t side = 0;         // next side byte
  uint32_t count = 0;
  if (!GetVarint(main_bytes, table_size, &pos, &count)) {
    return corrupt("truncated span count");
  }
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t gap = 0, length = 0;
    if (!GetVarint(main_bytes, table_size, &pos, &gap) ||
        !GetVarint(main_bytes, table_size, &pos, &length)) {
      return corrupt("truncated span table at span " + std::to_string(i));
    }
    if (length == 0 || gap > raw_size - at || length > raw_size - at - gap) {
      return corrupt("span " + std::to_string(i) + " (gap " +
                     std::to_string(gap) + ", length " +
                     std::to_string(length) + ") runs past the block end");
    }
    if (gap > main_raw - body || length > side_raw - side) {
      return corrupt("span " + std::to_string(i) +
                     " needs more bytes than its streams hold");
    }
    std::memcpy(out->data() + at, main_bytes.data() + body, gap);
    at += gap;
    body += gap;
    std::memcpy(out->data() + at, side_bytes.data() + side, length);
    at += length;
    side += length;
  }
  if (pos != table_size || side != side_raw) {
    return corrupt("span table of " + std::to_string(count) + " spans covers " +
                   std::to_string(side) + " of " + std::to_string(side_raw) +
                   " side bytes and " + std::to_string(pos) + " of " +
                   std::to_string(table_size) + " table bytes");
  }
  // What is left of the main stream is exactly the tail after the last
  // span: both counts are raw_size - side_raw outside bytes.
  std::memcpy(out->data() + at, main_bytes.data() + body, main_raw - body);
  return Status::OK();
}

// Frames `payload`, which codes `data`, as a block of `method`. When it
// does not shrink `data` this is the incompressible fallback instead:
// `data` is stored verbatim, so decode is a memcpy and the frame never
// grows past raw size + header.
std::string FrameBlock(char method, std::string_view payload,
                       std::string_view data) {
  if (payload.size() >= data.size()) {
    method = kMethodStored;
    payload = data;
  }
  std::string block;
  block.reserve(kBgzfHeaderSize + payload.size());
  block.append(kMagic, 3);
  block.push_back(method);
  BufferWriter w(&block);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU32(static_cast<uint32_t>(data.size()));
  block.append(payload);
  return block;
}

}  // namespace

bool BgzfHasBlockMagic(std::string_view data) {
  return data.size() >= 4 && std::memcmp(data.data(), kMagic, 3) == 0 &&
         (data[3] == kMethodDeflate || data[3] == kMethodStored ||
          data[3] == kMethodSplit);
}

Result<std::string> BgzfCompressBlock(std::string_view data, int level) {
  GESALL_RETURN_NOT_OK(CheckLevel(level));
  if (data.size() > kBgzfBlockSize) {
    return Status::InvalidArgument("BGZF block payload too large");
  }
  std::string payload;
  GESALL_RETURN_NOT_OK(
      DeflateStream(data, level, Z_DEFAULT_STRATEGY, &payload));
  return FrameBlock(kMethodDeflate, payload, data);
}

Result<std::string> BgzfCompressSplitBlock(std::string_view data,
                                           const std::vector<BgzfSpan>& spans,
                                           int level) {
  GESALL_RETURN_NOT_OK(CheckLevel(level));
  if (data.size() > kBgzfBlockSize) {
    return Status::InvalidArgument("BGZF block payload too large");
  }
  size_t side_raw = 0;
  uint32_t count = 0;
  size_t end = 0;  // end of the previous span
  for (const BgzfSpan& s : spans) {
    if (s.offset < end || s.length > data.size() ||
        s.offset > data.size() - s.length) {
      return Status::InvalidArgument(
          "split block spans must be sorted, disjoint and inside the " +
          std::to_string(data.size()) + "-byte chunk");
    }
    end = s.offset + s.length;
    side_raw += s.length;
    count += s.length > 0 ? 1 : 0;
  }
  if (count == 0 || level == 0) return BgzfCompressBlock(data, level);

  std::string main_raw;
  std::string side;
  main_raw.reserve(data.size() - side_raw + kMaxVarintBytes * (1 + 2 * count));
  side.reserve(side_raw);
  PutVarint(count, &main_raw);
  end = 0;
  for (const BgzfSpan& s : spans) {
    if (s.length == 0) continue;
    PutVarint(s.offset - static_cast<uint32_t>(end), &main_raw);
    PutVarint(s.length, &main_raw);
    end = s.offset + s.length;
  }
  end = 0;
  for (const BgzfSpan& s : spans) {
    main_raw.append(data.substr(end, s.offset - end));
    side.append(data.substr(s.offset, s.length));
    end = s.offset + s.length;
  }
  main_raw.append(data.substr(end));

  std::string payload;
  BufferWriter w(&payload);
  w.PutU32(static_cast<uint32_t>(main_raw.size()));
  w.PutU32(static_cast<uint32_t>(side_raw));
  w.PutU32(0);  // main_csize, patched below
  GESALL_RETURN_NOT_OK(
      DeflateStream(main_raw, level, Z_DEFAULT_STRATEGY, &payload));
  const uint32_t main_csize =
      static_cast<uint32_t>(payload.size() - kSplitTableSize);
  for (size_t i = 0; i < 4; ++i) {
    payload[8 + i] = static_cast<char>((main_csize >> (8 * i)) & 0xff);
  }
  GESALL_RETURN_NOT_OK(DeflateStream(side, level, Z_HUFFMAN_ONLY, &payload));
  return FrameBlock(kMethodSplit, payload, data);
}

Status BgzfCompressChunks(const std::vector<std::string_view>& chunks,
                          int level, Executor* executor, std::string* out,
                          BgzfCodecStats* stats,
                          const std::vector<std::vector<BgzfSpan>>* spans) {
  GESALL_RETURN_NOT_OK(CheckLevel(level));
  const size_t n = chunks.size();
  if (spans != nullptr && spans->size() != n) {
    return Status::InvalidArgument(
        "BgzfCompressChunks needs one span list per chunk: " +
        std::to_string(spans->size()) + " for " + std::to_string(n));
  }
  std::vector<std::string> blocks(n);
  std::vector<Status> errors(n);
  std::vector<int64_t> micros(n, 0);
  auto deflate = [&](size_t i) {
    if (chunks[i].empty()) return;
    const int64_t t0 = NowMicros();
    Result<std::string> block =
        spans != nullptr
            ? BgzfCompressSplitBlock(chunks[i], (*spans)[i], level)
            : BgzfCompressBlock(chunks[i], level);
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
  } else if (info.split) {
    GESALL_RETURN_NOT_OK(InflateSplit(data.substr(kBgzfHeaderSize, csize),
                                      info.raw_size, file_offset, out));
  } else {
    GESALL_RETURN_NOT_OK(InflateStream(data.substr(kBgzfHeaderSize, csize),
                                       info.raw_size, "deflate", file_offset,
                                       out));
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
