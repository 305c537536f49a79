// BGZF-style blocked compression.
//
// BAM files are a series of independently-deflated blocks so that a reader
// can start decompressing at any block boundary — the property Gesall's
// storage substrate relies on to split BAM files into DFS blocks (paper
// §3.1). This implementation mirrors the real BGZF container: each block is
//
//   magic "GBZ" | method | u32 compressed_size | u32 uncompressed_size | payload
//
// with one of three methods:
//   '1' deflate: the payload is one zlib stream at the writer's level.
//   '0' stored:  the payload is the raw bytes verbatim — the
//       incompressible-block fallback, chosen automatically when the
//       coded payload would not shrink the chunk (real BGZF burns cycles
//       on such blocks; we skip them and keep decode a memcpy).
//   '2' split:   the caller names spans of the chunk (BAM: each record's
//       quality string) that LZ matching cannot shorten. The payload is
//         u32 main_raw | u32 side_raw | u32 main_csize | main | side
//       where `main` deflates, at the writer's level, a varint span
//       count, varint (gap, length) pairs and then the bytes outside
//       the spans in order, and `side` codes the bytes inside the spans
//       Huffman-only (Z_HUFFMAN_ONLY). It inflates to exactly the chunk.
// Every decoder below handles all three, so callers never see a method.
//
// The codec is the storage substrate for every compressed byte path:
// DFS intermediate parts (DfsOptions::compress_parts), shuffle spill runs
// (JobConfig::compress_shuffle), and the BAM container itself (the only
// writer of split blocks). All of them share the zlib-level knob and the
// per-writer BgzfCodecStats that feed the raw-vs-compressed disk-byte
// counters.

#ifndef GESALL_UTIL_BGZF_H_
#define GESALL_UTIL_BGZF_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace gesall {

class Executor;

/// Maximum uncompressed payload per BGZF block (64 KiB, as in samtools).
inline constexpr size_t kBgzfBlockSize = 64 * 1024;

/// Byte size of the per-block header (magic + method + two u32 sizes).
inline constexpr size_t kBgzfHeaderSize = 12;

/// Default zlib level (Z_DEFAULT_COMPRESSION). Valid levels are -1 and
/// 0..9; every entry point below rejects anything else.
inline constexpr int kBgzfDefaultLevel = -1;

/// \brief Header fields of one block, readable without decompressing.
struct BgzfBlockInfo {
  size_t block_size = 0;  // total on-disk size (header + payload)
  size_t raw_size = 0;    // uncompressed payload size
  bool stored = false;    // method '0': payload stored verbatim
  bool split = false;     // method '2': main and side streams
};

/// \brief Bytes [offset, offset + length) of one chunk, coded in a split
/// block's side stream.
struct BgzfSpan {
  uint32_t offset = 0;
  uint32_t length = 0;
};

/// \brief Cumulative codec accounting of one writer (or one range read).
struct BgzfCodecStats {
  int64_t raw_bytes = 0;       // payload bytes in
  int64_t stored_bytes = 0;    // on-disk bytes out, headers included
  int64_t blocks = 0;          // blocks emitted
  int64_t stored_blocks = 0;   // blocks that took the verbatim fallback
  int64_t compress_micros = 0; // cpu time spent in deflate
};

/// \brief Compresses `data` into one BGZF block (must fit kBgzfBlockSize).
/// Falls back to a stored (method '0') block when deflate does not shrink
/// the payload.
Result<std::string> BgzfCompressBlock(std::string_view data,
                                      int level = kBgzfDefaultLevel);

/// \brief Compresses `data` into one split block (method '2') whose side
/// stream holds the bytes inside `spans` (sorted, disjoint, inside
/// `data`; empty spans are skipped), else InvalidArgument. Without a
/// non-empty span, or at level 0, this is BgzfCompressBlock. Falls back
/// to a stored block when the split payload does not shrink `data`.
Result<std::string> BgzfCompressSplitBlock(std::string_view data,
                                           const std::vector<BgzfSpan>& spans,
                                           int level = kBgzfDefaultLevel);

/// Chunk counts below this deflate on the calling thread, the same
/// cutoff as the DFS's parallel checksums: an input of a few blocks
/// gains little from fanning out, so small jobs' partitions stay on the
/// thread that built them.
inline constexpr size_t kBgzfMinParallelChunks = 4;

/// \brief Deflates already-cut chunks, one BGZF block per chunk (each
/// must fit kBgzfBlockSize), and appends the blocks to `*out` in chunk
/// order. Empty chunks emit nothing, as BgzfWriter::Flush does. Every
/// block goes through BgzfCompressBlock, so the bytes equal a BgzfWriter
/// flushed at the same cuts whether the blocks deflated in parallel or
/// not. With an `executor` and at least kBgzfMinParallelChunks chunks the
/// blocks deflate as TaskGroup tasks (the helping wait makes this safe
/// from inside an executor task); otherwise on the calling thread.
/// `stats`, when non-null, accumulates as BgzfWriter::stats() does, with
/// compress_micros summed over the blocks (cpu time, not wall time).
/// `spans`, when non-null, holds one span list per chunk, and each block
/// goes through BgzfCompressSplitBlock instead.
Status BgzfCompressChunks(
    const std::vector<std::string_view>& chunks, int level,
    Executor* executor, std::string* out, BgzfCodecStats* stats = nullptr,
    const std::vector<std::vector<BgzfSpan>>* spans = nullptr);

/// \brief Decompresses exactly one block starting at `data`.
/// On success sets `*consumed` to the block's total on-disk size.
Result<std::string> BgzfDecompressBlock(std::string_view data,
                                        size_t* consumed);

/// \brief Scratch-reuse decode: decompresses the block starting at `data`
/// into `*out` (replacing its contents, keeping its capacity).
/// `file_offset` is the block's position in the enclosing stream, used
/// only for error context; zlib failures and split blocks whose stream
/// sizes or span table disagree surface as Corruption naming it. Sizes
/// a split payload declares are checked against the block's raw size
/// before anything is allocated.
Status BgzfDecompressBlockInto(std::string_view data, size_t file_offset,
                               std::string* out, size_t* consumed);

/// \brief True when `data` starts with a block magic and a method byte
/// this codec decodes: the allocation-free filter of a boundary scan,
/// and the same check BgzfPeekBlock applies.
bool BgzfHasBlockMagic(std::string_view data);

/// \brief Returns the total on-disk size of the block starting at `data`,
/// without decompressing. Fails if `data` is shorter than a header.
Result<size_t> BgzfPeekBlockSize(std::string_view data);

/// \brief Reads all header fields of the block starting at `data` without
/// decompressing — the skip primitive of lazy range reads.
Result<BgzfBlockInfo> BgzfPeekBlock(std::string_view data);

/// \brief Lazy range decode over a concatenation of BGZF blocks:
/// appends uncompressed bytes [offset, offset+length) to `*out`,
/// decompressing only the blocks that cover the range (blocks before it
/// are skipped by header walk, blocks after it are never touched).
/// `decompress_micros`, when non-null, accumulates inflate cpu time.
Status BgzfReadRange(std::string_view compressed, size_t offset,
                     size_t length, std::string* out,
                     int64_t* decompress_micros = nullptr);

/// \brief Streaming writer that packs appended bytes into BGZF blocks.
class BgzfWriter {
 public:
  /// Appended bytes never straddle a block if `Flush()` is called between
  /// logical chunks; otherwise blocks are cut at kBgzfBlockSize.
  /// `level` is the zlib level (kBgzfDefaultLevel = zlib's default).
  explicit BgzfWriter(std::string* out, int level = kBgzfDefaultLevel)
      : out_(out), level_(level) {}

  /// Appending nothing is a no-op (no empty block is ever emitted).
  Status Append(std::string_view data);

  /// Compresses and emits the pending partial block, if any. Idempotent:
  /// a second Flush with nothing pending emits nothing.
  Status Flush();

  /// Cumulative raw/stored byte and deflate-time accounting.
  const BgzfCodecStats& stats() const { return stats_; }

 private:
  std::string* out_;
  int level_;
  std::string pending_;
  BgzfCodecStats stats_;
};

/// \brief Splits a compressed stream into per-block (offset, size) spans.
/// Used by the storage layer to align DFS blocks with BGZF chunks.
Result<std::vector<std::pair<size_t, size_t>>> BgzfListBlocks(
    std::string_view compressed);

}  // namespace gesall

#endif  // GESALL_UTIL_BGZF_H_
