// BAM: binary, compressed SAM over BGZF blocks (paper §3.1).
//
// Layout: the serialized header occupies its own leading BGZF block,
// followed by record blocks. A record chunk is cut before a record that
// would straddle a block and after one that fills it exactly, so every
// BGZF chunk after the header contains whole records. This is the
// property Gesall's storage substrate exploits: a DFS split that starts at
// a chunk boundary can be decoded into a valid record stream after
// fetching the header from the file's first chunk.
//
// WriteBam and BuildBamPartition share one chunk cutter. Each record's
// quality string is a span of a split block (util/bgzf.h): qualities
// are Huffman-coded apart from the rest of the record, which deflates
// at the BAM level. A split block inflates to the same chunk, so
// readers never see the difference.

#ifndef GESALL_FORMATS_BAM_H_
#define GESALL_FORMATS_BAM_H_

#include <string>
#include <vector>

#include "formats/sam.h"
#include "util/bgzf.h"
#include "util/status.h"

namespace gesall {

class Executor;

/// Serializes one record into the custom binary layout (length-prefixed).
std::string EncodeBamRecord(const SamRecord& rec);

/// Decodes one record from `data` starting at *offset; advances *offset.
/// Corruption when the length prefix covers bytes the record's fields
/// do not (a body with unparsed trailing bytes).
Result<SamRecord> DecodeBamRecord(std::string_view data, size_t* offset);

/// Serializes a complete BAM file in one call, on the calling thread:
/// EncodeBamRecord on every record, then the bytes BuildBamPartition
/// would build from those values. The records are not decoded again:
/// their quality spans are known from the structs.
Result<std::string> WriteBam(const SamHeader& header,
                             const std::vector<SamRecord>& records);

/// \brief Builds a complete BAM file from records already in
/// EncodeBamRecord form (a reducer's output values). Each value must
/// hold exactly one well-formed record, else Corruption; it is copied as
/// is, never re-encoded. The header is the first chunk; record chunks
/// are cut as the file comment says, and each is one split block with
/// its records' quality strings as spans, deflated by
/// BgzfCompressChunks on `executor` (null: the calling thread).
Result<std::string> BuildBamPartition(const SamHeader& header,
                                      const std::vector<std::string>& records,
                                      Executor* executor);

/// Parses a complete BAM file.
Result<std::pair<SamHeader, std::vector<SamRecord>>> ReadBam(
    std::string_view bam);

/// Parses only the header (first chunk) of a BAM file.
Result<SamHeader> ReadBamHeader(std::string_view bam);

/// \brief Iterates records from a decompressed byte stream of record
/// chunks (no header), as Gesall's record reader presents DFS splits.
class BamRecordIterator {
 public:
  explicit BamRecordIterator(std::string_view decompressed_records)
      : data_(decompressed_records) {}

  bool Done() const { return offset_ >= data_.size(); }

  /// Decodes the next record; call only when !Done().
  Result<SamRecord> Next();

 private:
  std::string_view data_;
  size_t offset_ = 0;
};

/// \brief Decompresses the record region (everything after the header
/// blocks) of a BAM byte string.
Result<std::string> DecompressBamRecords(std::string_view bam);

/// \brief Returns the file offset where record chunks begin (i.e. one past
/// the header's BGZF blocks).
Result<size_t> BamRecordsStartOffset(std::string_view bam);

}  // namespace gesall

#endif  // GESALL_FORMATS_BAM_H_
