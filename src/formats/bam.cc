#include "formats/bam.h"

#include <cstring>

#include "util/io.h"

namespace gesall {

namespace {
constexpr char kBamMagic[4] = {'G', 'B', 'A', 'M'};

// Finished chunks BuildBamPartition collects before deflating them: 1 MiB
// of raw records, enough blocks to keep every executor worker busy.
constexpr size_t kBamDeflateWindowChunks = 16;

// The header's own leading BGZF chunk: magic, then the SAM header text.
Result<std::string> HeaderChunk(const SamHeader& header) {
  std::string chunk;
  chunk.append(kBamMagic, 4);
  BufferWriter w(&chunk);
  w.PutString(WriteSamHeader(header));
  if (chunk.size() > kBgzfBlockSize) {
    return Status::InvalidArgument("BAM header exceeds one BGZF block");
  }
  return chunk;
}

// Where rec's quality string starts in its EncodeBamRecord bytes: past
// the fixed-width fields and the length-prefixed strings before it.
size_t QualOffset(const SamRecord& rec) {
  return 4 +                        // record length
         4 + rec.qname.size() +     // qname
         2 + 4 + 8 + 1 +            // flag, ref_id, pos, mapq
         2 + 5 * rec.cigar.size() + // cigar ops
         4 + 8 + 8 +                // mate_ref_id, mate_pos, tlen
         4 + rec.seq.size() +       // seq
         4;                         // qual's length prefix
}
}  // namespace

std::string EncodeBamRecord(const SamRecord& rec) {
  std::string body;
  BufferWriter w(&body);
  w.PutString(rec.qname);
  w.PutU16(rec.flag);
  w.PutI32(rec.ref_id);
  w.PutI64(rec.pos);
  w.PutU8(static_cast<uint8_t>(rec.mapq));
  w.PutU16(static_cast<uint16_t>(rec.cigar.size()));
  for (const auto& c : rec.cigar) {
    w.PutU8(static_cast<uint8_t>(c.op));
    w.PutU32(static_cast<uint32_t>(c.len));
  }
  w.PutI32(rec.mate_ref_id);
  w.PutI64(rec.mate_pos);
  w.PutI64(rec.tlen);
  w.PutString(rec.seq);
  w.PutString(rec.qual);
  w.PutU16(static_cast<uint16_t>(rec.tags.size()));
  for (const auto& t : rec.tags) {
    w.PutBytes(std::string_view(t.key.data(), 2));
    w.PutU8(static_cast<uint8_t>(t.type));
    w.PutString(t.value);
  }
  std::string out;
  BufferWriter lw(&out);
  lw.PutU32(static_cast<uint32_t>(body.size()));
  out += body;
  return out;
}

Result<SamRecord> DecodeBamRecord(std::string_view data, size_t* offset) {
  BufferReader lr(data.substr(*offset));
  uint32_t len;
  GESALL_RETURN_NOT_OK(lr.GetU32(&len));
  if (lr.remaining() < len) return Status::Corruption("truncated BAM record");
  std::string_view body = data.substr(*offset + 4, len);
  BufferReader r(body);
  SamRecord rec;
  GESALL_RETURN_NOT_OK(r.GetString(&rec.qname));
  GESALL_RETURN_NOT_OK(r.GetU16(&rec.flag));
  GESALL_RETURN_NOT_OK(r.GetI32(&rec.ref_id));
  GESALL_RETURN_NOT_OK(r.GetI64(&rec.pos));
  uint8_t mapq;
  GESALL_RETURN_NOT_OK(r.GetU8(&mapq));
  rec.mapq = mapq;
  uint16_t n_ops;
  GESALL_RETURN_NOT_OK(r.GetU16(&n_ops));
  rec.cigar.resize(n_ops);
  for (auto& c : rec.cigar) {
    uint8_t op;
    uint32_t oplen;
    GESALL_RETURN_NOT_OK(r.GetU8(&op));
    GESALL_RETURN_NOT_OK(r.GetU32(&oplen));
    c.op = static_cast<char>(op);
    c.len = static_cast<int32_t>(oplen);
  }
  GESALL_RETURN_NOT_OK(r.GetI32(&rec.mate_ref_id));
  GESALL_RETURN_NOT_OK(r.GetI64(&rec.mate_pos));
  GESALL_RETURN_NOT_OK(r.GetI64(&rec.tlen));
  GESALL_RETURN_NOT_OK(r.GetString(&rec.seq));
  GESALL_RETURN_NOT_OK(r.GetString(&rec.qual));
  uint16_t n_tags;
  GESALL_RETURN_NOT_OK(r.GetU16(&n_tags));
  rec.tags.resize(n_tags);
  for (auto& t : rec.tags) {
    std::string_view key;
    GESALL_RETURN_NOT_OK(r.GetBytes(2, &key));
    t.key.assign(key);
    uint8_t type;
    GESALL_RETURN_NOT_OK(r.GetU8(&type));
    t.type = static_cast<char>(type);
    GESALL_RETURN_NOT_OK(r.GetString(&t.value));
  }
  if (!r.AtEnd()) {
    return Status::Corruption("BAM record body has " +
                              std::to_string(r.remaining()) +
                              " bytes past its last field");
  }
  *offset += 4 + len;
  return rec;
}

namespace {
// The chunk cutter behind WriteBam and BuildBamPartition. records[i] is
// one encoded record and quals[i] its quality string, at an offset from
// the record's first byte. The header is the first chunk. Record chunks
// are cut before a record that would overflow the block, and after one
// that fills it exactly.
Result<std::string> CutBamChunks(const SamHeader& header,
                                 const std::vector<std::string>& records,
                                 const std::vector<BgzfSpan>& quals,
                                 Executor* executor) {
  // Raw bytes not yet deflated and where each chunk starts in them; the
  // last start opens the chunk being filled, and spans[i] lists chunk
  // i's quality strings.
  GESALL_ASSIGN_OR_RETURN(std::string pending, HeaderChunk(header));
  std::vector<size_t> starts = {0, pending.size()};
  std::vector<std::vector<BgzfSpan>> spans(2);
  std::string bam;
  // Deflates the chunks before starts[upto] and drops their bytes.
  auto deflate = [&](size_t upto) -> Status {
    std::vector<std::string_view> chunks;
    for (size_t i = 0; i < upto; ++i) {
      chunks.push_back(std::string_view(pending).substr(
          starts[i], starts[i + 1] - starts[i]));
    }
    std::vector<std::vector<BgzfSpan>> done(
        std::make_move_iterator(spans.begin()),
        std::make_move_iterator(spans.begin() + upto));
    GESALL_RETURN_NOT_OK(BgzfCompressChunks(chunks, kBgzfDefaultLevel,
                                            executor, &bam, nullptr, &done));
    pending.erase(0, starts[upto]);
    starts = {0};
    spans.erase(spans.begin(), spans.begin() + upto);
    return Status::OK();
  };
  for (size_t i = 0; i < records.size(); ++i) {
    const std::string& v = records[i];
    if (v.size() > kBgzfBlockSize) {
      return Status::InvalidArgument("BAM record exceeds one BGZF block");
    }
    if (pending.size() - starts.back() + v.size() > kBgzfBlockSize) {
      starts.push_back(pending.size());
      spans.emplace_back();
    }
    spans.back().push_back(
        {static_cast<uint32_t>(pending.size() - starts.back() +
                               quals[i].offset),
         quals[i].length});
    pending.append(v);
    if (pending.size() - starts.back() == kBgzfBlockSize) {
      starts.push_back(pending.size());
      spans.emplace_back();
    }
    // Deflating a bounded window of finished chunks at a time caps the
    // raw copy at a few blocks, however large the partition.
    if (starts.size() > kBamDeflateWindowChunks) {
      GESALL_RETURN_NOT_OK(deflate(starts.size() - 1));
    }
  }
  starts.push_back(pending.size());
  GESALL_RETURN_NOT_OK(deflate(starts.size() - 1));
  return bam;
}

BgzfSpan QualSpan(const SamRecord& rec) {
  return {static_cast<uint32_t>(QualOffset(rec)),
          static_cast<uint32_t>(rec.qual.size())};
}
}  // namespace

Result<std::string> WriteBam(const SamHeader& header,
                             const std::vector<SamRecord>& records) {
  std::vector<std::string> values;
  std::vector<BgzfSpan> quals;
  values.reserve(records.size());
  quals.reserve(records.size());
  for (const auto& r : records) {
    values.push_back(EncodeBamRecord(r));
    quals.push_back(QualSpan(r));
  }
  return CutBamChunks(header, values, quals, nullptr);
}

Result<std::string> BuildBamPartition(const SamHeader& header,
                                      const std::vector<std::string>& records,
                                      Executor* executor) {
  // The values arrive through the shuffle: decode each one to validate
  // it and to find its quality string.
  std::vector<BgzfSpan> quals;
  quals.reserve(records.size());
  for (const auto& v : records) {
    size_t consumed = 0;
    GESALL_ASSIGN_OR_RETURN(SamRecord rec, DecodeBamRecord(v, &consumed));
    if (consumed != v.size()) {
      return Status::Corruption("BAM record value carries " +
                                std::to_string(v.size() - consumed) +
                                " bytes past its record");
    }
    quals.push_back(QualSpan(rec));
  }
  return CutBamChunks(header, records, quals, executor);
}

Result<SamHeader> ReadBamHeader(std::string_view bam) {
  size_t consumed = 0;
  GESALL_ASSIGN_OR_RETURN(std::string block,
                          BgzfDecompressBlock(bam, &consumed));
  if (block.size() < 4 || std::memcmp(block.data(), kBamMagic, 4) != 0) {
    return Status::Corruption("bad BAM magic");
  }
  BufferReader r(std::string_view(block).substr(4));
  std::string header_text;
  GESALL_RETURN_NOT_OK(r.GetString(&header_text));
  return ParseSamHeader(header_text);
}

Result<size_t> BamRecordsStartOffset(std::string_view bam) {
  // The header always occupies exactly the first BGZF block.
  return BgzfPeekBlockSize(bam);
}

Result<std::string> DecompressBamRecords(std::string_view bam) {
  GESALL_ASSIGN_OR_RETURN(size_t start, BamRecordsStartOffset(bam));
  std::string out;
  size_t off = start;
  while (off < bam.size()) {
    size_t consumed = 0;
    GESALL_ASSIGN_OR_RETURN(std::string block,
                            BgzfDecompressBlock(bam.substr(off), &consumed));
    out += block;
    off += consumed;
  }
  return out;
}

Result<SamRecord> BamRecordIterator::Next() {
  return DecodeBamRecord(data_, &offset_);
}

Result<std::pair<SamHeader, std::vector<SamRecord>>> ReadBam(
    std::string_view bam) {
  GESALL_ASSIGN_OR_RETURN(SamHeader header, ReadBamHeader(bam));
  GESALL_ASSIGN_OR_RETURN(std::string records_bytes,
                          DecompressBamRecords(bam));
  std::vector<SamRecord> records;
  BamRecordIterator it(records_bytes);
  while (!it.Done()) {
    GESALL_ASSIGN_OR_RETURN(SamRecord rec, it.Next());
    records.push_back(std::move(rec));
  }
  return std::make_pair(std::move(header), std::move(records));
}

}  // namespace gesall
