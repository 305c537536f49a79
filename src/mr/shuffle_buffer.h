// Zero-copy shuffle data path of the MapReduce engine (paper §3.1, the
// map-side sort-and-spill machinery of Fig. 5(b) and Fig. 6).
//
// Every emitted key/value is copied once into a per-partition byte arena
// and indexed by a 48-byte ShuffleEntry (16-byte inlined key head + two
// views). Sorting moves entries, not strings. A map task keeps one sorted
// run per partition per spill, and only the reduce-side k-way merge
// combines them: it compares the big-endian key-head words first and
// touches the full key bytes only on a 16-byte tie. Frozen runs stay
// valid as views into the arenas for the lifetime of the ShuffleBuffer,
// so the reduce side groups values with zero per-record copies.
//
// With compression on (JobConfig::compress_shuffle), each sorted spill
// run is serialized as length-framed records into a BGZF-blocked stream
// (see util/bgzf.h) the moment it seals, and the raw arena bytes are
// released — the spill "file" on disk is the compressed stream. The
// reduce-side cursors decompress lazily, one 64 KiB block at a time into
// per-cursor scratch buffers, so the k-way merge never inflates a whole
// run. Per-chunk CRC32C sums seal the compressed frames, exactly as they
// seal raw arenas.

#ifndef GESALL_MR_SHUFFLE_BUFFER_H_
#define GESALL_MR_SHUFFLE_BUFFER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/arena.h"
#include "util/bgzf.h"
#include "util/status.h"

namespace gesall {

class Executor;

/// \brief Index entry for one record in a shuffle arena.
///
/// The first 16 key bytes are inlined as two big-endian integers so most
/// comparisons never touch the arena. 16 bytes (not the classic 8)
/// because GDPT coordinate keys open with a constant flag byte plus the
/// 0x80-biased high bytes of the reference id — their discriminating
/// bytes (reference low byte, position) sit at offsets 8..16, where the
/// second prefix word catches them.
struct ShuffleEntry {
  uint64_t prefix = 0;   // key bytes 0..7, big-endian, zero-padded
  uint64_t prefix2 = 0;  // key bytes 8..15, big-endian, zero-padded
  std::string_view key;
  std::string_view value;
};

/// \brief Big-endian, zero-padded 8-byte word of a key at `offset`.
inline uint64_t ShuffleKeyWord(std::string_view key, size_t offset) {
  uint64_t p = 0;
  const size_t end = key.size() < offset + 8 ? key.size() : offset + 8;
  for (size_t i = offset; i < end; ++i) {
    p |= static_cast<uint64_t>(static_cast<unsigned char>(key[i]))
         << (56 - 8 * (i - offset));
  }
  return p;
}

/// \brief Big-endian, zero-padded 8-byte prefix of a key.
inline uint64_t ShuffleKeyPrefix(std::string_view key) {
  return ShuffleKeyWord(key, 0);
}

inline ShuffleEntry MakeShuffleEntry(std::string_view key,
                                     std::string_view value) {
  return {ShuffleKeyWord(key, 0), ShuffleKeyWord(key, 8), key, value};
}

/// Bytewise key order (identical to std::string comparison of the keys)
/// with the integer prefix fast path. A differing prefix word decides
/// correctly even across key lengths: zero padding sorts a shorter key
/// before any longer key it prefixes, matching lexicographic order. Only
/// a full 16-byte tie falls through to the key bytes.
inline bool ShuffleKeyLess(const ShuffleEntry& a, const ShuffleEntry& b) {
  if (a.prefix != b.prefix) return a.prefix < b.prefix;
  if (a.prefix2 != b.prefix2) return a.prefix2 < b.prefix2;
  if (a.key.size() > 16 && b.key.size() > 16) {
    return a.key.substr(16) < b.key.substr(16);
  }
  return a.key < b.key;
}

inline bool ShuffleKeyEqual(const ShuffleEntry& a, const ShuffleEntry& b) {
  return a.prefix == b.prefix && a.prefix2 == b.prefix2 && a.key == b.key;
}

/// \brief One frozen, key-sorted run of entries.
using ShuffleRun = std::vector<ShuffleEntry>;

/// \brief One sealed, key-sorted spill run in compressed form: a BGZF
/// stream of [u32 klen][u32 vlen][key][value] records (little-endian
/// lengths; records may straddle the 64 KiB block cuts).
struct CompressedShuffleRun {
  std::string bytes;          // BGZF-framed record stream
  int64_t records = 0;
  int64_t payload_bytes = 0;  // key + value bytes, framing excluded
  int64_t raw_bytes = 0;      // serialized size before compression
};

/// \brief Streaming source of sorted shuffle entries for the k-way merge.
///
/// Unlike an in-memory ShuffleRun, the entry returned by Advance() — and
/// the key/value views inside it — is valid ONLY until the next Advance()
/// call: the cursor reuses its decode buffers.
class ShuffleRunReader {
 public:
  virtual ~ShuffleRunReader() = default;
  /// Next entry in run order, or nullptr when drained (or on decode
  /// error — check status()).
  virtual const ShuffleEntry* Advance() = 0;
  /// OK unless the underlying stream failed to decode.
  virtual const Status& status() const = 0;
};

/// \brief Lazy-decompressing cursor over one CompressedShuffleRun.
///
/// Inflates one 64 KiB BGZF block at a time into a reused scratch buffer;
/// a record straddling a block cut is stitched through a carry buffer.
/// Peak memory per cursor is ~2 blocks regardless of run size, so a
/// k-way merge over compressed runs holds ~k*128 KiB instead of the
/// inflated runs.
class CompressedShuffleRunReader : public ShuffleRunReader {
 public:
  /// Does not own the bytes; `compressed` must outlive the reader.
  explicit CompressedShuffleRunReader(std::string_view compressed)
      : data_(compressed) {}

  const ShuffleEntry* Advance() override;
  const Status& status() const override { return status_; }
  /// Cumulative inflate cpu time, for the decompress counters.
  int64_t decompress_micros() const { return decompress_micros_; }

 private:
  // Loads the next BGZF block into scratch_. False on end/error.
  bool NextBlock();
  // Copies exactly n stream bytes into dst (used for record headers, so
  // a header straddling a block cut never aliases the payload span).
  bool ReadBytes(size_t n, char* dst);
  // Serves n contiguous stream bytes as one span: zero-copy into
  // scratch_ when the span fits the current block, stitched into carry_
  // otherwise.
  bool ReadSpan(size_t n, std::string_view* out);

  std::string_view data_;
  size_t file_off_ = 0;  // offset of the next undecoded block
  std::string scratch_;  // current decompressed block
  size_t pos_ = 0;       // cursor within scratch_
  std::string carry_;    // stitch buffer for straddling spans
  ShuffleEntry entry_;
  Status status_;
  int64_t decompress_micros_ = 0;
};

/// \brief K-way merge over sorted shuffle runs, in key order with ties
/// broken by run index (run creation order), matching the engine's
/// (map task, emission order) determinism contract.
///
/// Sources are in-memory runs, streaming readers, or a mix (runs take
/// the lower run indices). The heap nodes cache each run head's 16-byte
/// key head, so a merge step usually costs a few integer compares with
/// no pointer chasing. Advancement is lazy — the winning cursor moves at
/// the START of the next Next() call — so an entry from a streaming
/// reader stays valid until the next Next(); entries from in-memory runs
/// stay valid for the lifetime of the runs, as before.
class ShuffleRunMerger {
 public:
  explicit ShuffleRunMerger(const std::vector<const ShuffleRun*>& runs)
      : ShuffleRunMerger(runs, {}) {}

  explicit ShuffleRunMerger(const std::vector<ShuffleRunReader*>& readers)
      : ShuffleRunMerger({}, readers) {}

  ShuffleRunMerger(const std::vector<const ShuffleRun*>& runs,
                   const std::vector<ShuffleRunReader*>& readers) {
    cursors_.reserve(runs.size() + readers.size());
    size_t run_index = 0;
    for (const ShuffleRun* run : runs) {
      if (!run->empty()) {
        const ShuffleEntry* first = run->data();
        cursors_.push_back({first->prefix, first->prefix2, first,
                            first + run->size(), nullptr, run_index});
      }
      ++run_index;
    }
    for (ShuffleRunReader* reader : readers) {
      const ShuffleEntry* first = reader->Advance();
      if (first != nullptr) {
        cursors_.push_back({first->prefix, first->prefix2, first, nullptr,
                            reader, run_index});
      }
      ++run_index;
    }
    for (size_t i = cursors_.size() / 2; i-- > 0;) SiftDown(i);
  }

  /// Next entry in merged order, or nullptr when drained. Entries from
  /// in-memory runs stay valid for the lifetime of the runs; entries
  /// from streaming readers only until the following Next() call.
  const ShuffleEntry* Next() {
    if (advance_pending_) {
      AdvanceTop();
      advance_pending_ = false;
    }
    if (cursors_.empty()) return nullptr;
    advance_pending_ = true;
    return cursors_[0].cur;
  }

 private:
  struct Cursor {
    uint64_t prefix;   // cached cur->prefix
    uint64_t prefix2;  // cached cur->prefix2
    const ShuffleEntry* cur;
    const ShuffleEntry* end;     // one-past-last (in-memory cursors only)
    ShuffleRunReader* reader;    // non-null for streaming cursors
    size_t run;
  };

  void AdvanceTop() {
    Cursor& top = cursors_[0];
    const ShuffleEntry* next;
    if (top.reader != nullptr) {
      next = top.reader->Advance();
    } else {
      ++top.cur;
      next = top.cur == top.end ? nullptr : top.cur;
    }
    if (next == nullptr) {
      cursors_[0] = cursors_.back();
      cursors_.pop_back();
    } else {
      top.cur = next;
      top.prefix = next->prefix;
      top.prefix2 = next->prefix2;
    }
    if (!cursors_.empty()) SiftDown(0);
  }

  // Strict weak order: key bytes, then run index (never equal).
  bool Before(const Cursor& a, const Cursor& b) const {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    if (a.prefix2 != b.prefix2) return a.prefix2 < b.prefix2;
    std::string_view ka = a.cur->key;
    std::string_view kb = b.cur->key;
    if (ka.size() > 16 && kb.size() > 16) {
      ka = ka.substr(16);
      kb = kb.substr(16);
    }
    int cmp = ka.compare(kb);
    if (cmp != 0) return cmp < 0;
    return a.run < b.run;
  }

  void SiftDown(size_t i) {
    const size_t n = cursors_.size();
    while (true) {
      size_t best = i;
      const size_t l = 2 * i + 1, r = 2 * i + 2;
      if (l < n && Before(cursors_[l], cursors_[best])) best = l;
      if (r < n && Before(cursors_[r], cursors_[best])) best = r;
      if (best == i) return;
      std::swap(cursors_[i], cursors_[best]);
      i = best;
    }
  }

  std::vector<Cursor> cursors_;
  bool advance_pending_ = false;
};

/// \brief Spill accounting of one map task's shuffle.
struct ShuffleStats {
  int64_t spills = 0;
  /// Arena bytes sealed under per-chunk CRC32C sums at Finish (0 with
  /// checksumming disabled). With compression on, covers the compressed
  /// frames instead of raw arenas.
  int64_t checksummed_bytes = 0;
  /// Serialized spill bytes before compression (0 with compression off).
  int64_t spill_bytes_raw = 0;
  /// The same spills after BGZF framing: the bytes that actually hit
  /// "disk" in compressed mode.
  int64_t spill_bytes_compressed = 0;
  /// Deflate cpu time of spill serialization.
  int64_t compress_micros = 0;
};

/// \brief Per-map-task shuffle accumulator: per-partition arenas plus
/// sorted spill runs, with Hadoop sort-and-spill semantics.
///
/// Usage: Add() every record; Finish() once; then read runs(p) — or
/// compressed_runs(p) in compressed mode. Partition p holds one sorted
/// run per spill that found it dirty, in spill order; a reader merges
/// them with ShuffleRunMerger, whose run-index tie-break keeps equal keys
/// in emission order. Entry views stay valid for the lifetime of this
/// object (it owns the arenas), including after the object is moved;
/// compressed runs own their bytes outright.
class ShuffleBuffer {
 public:
  /// Checksum granularity: one CRC32C per this many stored bytes, the
  /// HDFS io.bytes.per.checksum analog (HDFS uses 512 B per chunk on
  /// disk; in-memory we follow the DFS block metadata's 64 KiB chunks).
  static constexpr size_t kChecksumChunkBytes = 64 * 1024;

  /// `sort_buffer_bytes` is the spill threshold over the buffered-record
  /// accounting (key + value + per-record overhead), the
  /// mapreduce.task.io.sort.mb analog. With `checksum` on, Finish()
  /// seals each partition's spill byte stream — the raw arena, or the
  /// compressed frames with `compress` on — under per-64KiB-chunk
  /// CRC32C sums (the IFile checksum analog) that VerifyPartition
  /// rechecks at fetch time. With `compress` on, every sealed spill run
  /// is serialized through the BGZF codec at `compress_level` and its
  /// arena bytes are released; `executor` (optional, not owned) fans the
  /// per-partition spill work out as parallel tasks.
  ShuffleBuffer(int num_partitions, int64_t sort_buffer_bytes,
                bool checksum = true, bool compress = false,
                int compress_level = kBgzfDefaultLevel,
                Executor* executor = nullptr);

  ShuffleBuffer(ShuffleBuffer&&) = default;
  ShuffleBuffer& operator=(ShuffleBuffer&&) = default;

  /// Copies one record into partition `p`'s arena. May spill (sort +
  /// freeze) every partition when the buffered accounting exceeds the
  /// sort buffer. Fails only if a compressed spill fails.
  Status Add(int p, std::string_view key, std::string_view value);

  /// Final spill, then seals every partition's spill runs under their
  /// checksums. No run is merged or rewritten.
  Status Finish();

  /// Recomputes partition `p`'s per-chunk CRC32C sums over its spill
  /// byte stream (arena extents, or compressed frames) and compares them
  /// against the sums sealed at Finish() — the reduce-side fetch
  /// verification. Also rejects a partition whose stored byte count
  /// changed after sealing (truncation / late append). Corruption() on
  /// mismatch; OK when checksumming is disabled or the partition is not
  /// yet sealed.
  Status VerifyPartition(int p) const;

  int num_partitions() const { return static_cast<int>(parts_.size()); }
  const std::vector<ShuffleRun>& runs(int p) const { return parts_[p].runs; }
  /// Sealed compressed spill runs of partition `p` (compressed mode
  /// only; empty otherwise — use runs(p) then).
  const std::vector<CompressedShuffleRun>& compressed_runs(int p) const {
    return parts_[p].cruns;
  }
  /// Sealed per-64KiB-chunk CRC32C sums of partition `p`'s spill bytes.
  /// Empty when checksumming is disabled or before Finish().
  const std::vector<uint32_t>& chunk_crcs(int p) const {
    return parts_[p].chunk_crcs;
  }
  bool checksummed() const { return checksum_; }
  bool compressed() const { return compress_; }
  const ShuffleStats& stats() const { return stats_; }

 private:
  struct Partition {
    Arena arena;
    ShuffleRun pending;  // unsorted entries since the last spill
    std::vector<ShuffleRun> runs;
    std::vector<CompressedShuffleRun> cruns;  // compressed mode only
    std::vector<uint32_t> chunk_crcs;  // sealed at Finish when checksummed
    int64_t sealed_bytes = -1;         // spill bytes covered; -1 = unsealed
    // Codec accounting local to this partition so parallel spills never
    // contend; folded into stats_ at Finish().
    BgzfCodecStats codec;
  };

  Status SpillAll();
  Status SpillPartition(Partition* part);
  // Serializes + compresses one sorted run and releases its arena bytes.
  Status CompressRun(Partition* part, const ShuffleRun& run);
  // Seals the partition's spill byte stream under per-chunk sums;
  // charges stats_.checksummed_bytes.
  void SealChecksums(Partition* part);

  int64_t sort_buffer_bytes_;
  int64_t buffered_bytes_ = 0;
  bool checksum_;
  bool compress_;
  int compress_level_;
  Executor* executor_;
  ShuffleStats stats_;
  std::vector<Partition> parts_;
};

}  // namespace gesall

#endif  // GESALL_MR_SHUFFLE_BUFFER_H_
