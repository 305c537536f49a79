#include "formats/bam.h"

#include <gtest/gtest.h>
#include <zlib.h>

#include "util/executor.h"
#include "util/io.h"
#include "util/rng.h"

namespace gesall {
namespace {

SamHeader TestHeader() {
  SamHeader h;
  h.refs = {{"chr1", 100000}, {"chr2", 50000}};
  return h;
}

SamRecord MakeRecord(Rng& rng, int i) {
  SamRecord r;
  r.qname = "read" + std::to_string(i);
  r.flag = sam_flags::kPaired;
  r.ref_id = static_cast<int32_t>(rng.Uniform(2));
  r.pos = static_cast<int64_t>(rng.Uniform(50000));
  r.mapq = static_cast<int>(rng.Uniform(61));
  r.cigar = {{'M', 100}};
  r.mate_ref_id = r.ref_id;
  r.mate_pos = r.pos + 300;
  r.tlen = 400;
  r.seq = std::string(100, "ACGT"[rng.Uniform(4)]);
  r.qual = std::string(100, 'I');
  r.SetTag("AS", 'i', std::to_string(rng.Uniform(100)));
  return r;
}

TEST(BamRecordCodecTest, RoundTrip) {
  Rng rng(1);
  SamRecord r = MakeRecord(rng, 0);
  std::string encoded = EncodeBamRecord(r);
  size_t offset = 0;
  auto decoded = DecodeBamRecord(encoded, &offset).ValueOrDie();
  EXPECT_EQ(decoded, r);
  EXPECT_EQ(offset, encoded.size());
}

TEST(BamRecordCodecTest, SequentialDecode) {
  Rng rng(2);
  std::string buf;
  std::vector<SamRecord> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back(MakeRecord(rng, i));
    buf += EncodeBamRecord(records.back());
  }
  size_t offset = 0;
  for (int i = 0; i < 10; ++i) {
    auto r = DecodeBamRecord(buf, &offset).ValueOrDie();
    EXPECT_EQ(r, records[i]);
  }
  EXPECT_EQ(offset, buf.size());
}

TEST(BamRecordCodecTest, TruncationDetected) {
  Rng rng(3);
  std::string buf = EncodeBamRecord(MakeRecord(rng, 0));
  buf.resize(buf.size() - 5);
  size_t offset = 0;
  EXPECT_FALSE(DecodeBamRecord(buf, &offset).ok());
}

TEST(BamFileTest, FullRoundTrip) {
  Rng rng(4);
  SamHeader h = TestHeader();
  std::vector<SamRecord> records;
  for (int i = 0; i < 500; ++i) records.push_back(MakeRecord(rng, i));
  auto bam = WriteBam(h, records).ValueOrDie();
  auto [ph, pr] = ReadBam(bam).ValueOrDie();
  EXPECT_EQ(ph, h);
  EXPECT_EQ(pr, records);
}

TEST(BamFileTest, HeaderOnlyRead) {
  SamHeader h = TestHeader();
  auto bam = WriteBam(h, {}).ValueOrDie();
  EXPECT_EQ(ReadBamHeader(bam).ValueOrDie(), h);
}

TEST(BamFileTest, HeaderOccupiesFirstBlock) {
  Rng rng(5);
  SamHeader h = TestHeader();
  std::vector<SamRecord> records;
  for (int i = 0; i < 10; ++i) records.push_back(MakeRecord(rng, i));
  auto bam = WriteBam(h, records).ValueOrDie();
  auto blocks = BgzfListBlocks(bam).ValueOrDie();
  ASSERT_GE(blocks.size(), 2u);
  size_t start = BamRecordsStartOffset(bam).ValueOrDie();
  EXPECT_EQ(start, blocks[1].first);
}

TEST(BamFileTest, RecordsNeverSpanChunks) {
  // Every BGZF chunk after the header must decode as whole records — the
  // invariant Gesall's storage layer depends on (paper §3.1).
  Rng rng(6);
  SamHeader h = TestHeader();
  std::vector<SamRecord> records;
  for (int i = 0; i < 2000; ++i) records.push_back(MakeRecord(rng, i));
  auto bam = WriteBam(h, records).ValueOrDie();
  auto blocks = BgzfListBlocks(bam).ValueOrDie();
  ASSERT_GT(blocks.size(), 2u);
  size_t total = 0;
  for (size_t b = 1; b < blocks.size(); ++b) {
    auto chunk =
        BgzfDecompressBlock(std::string_view(bam).substr(blocks[b].first),
                            nullptr)
            .ValueOrDie();
    BamRecordIterator it(chunk);
    while (!it.Done()) {
      ASSERT_TRUE(it.Next().ok());
      ++total;
    }
  }
  EXPECT_EQ(total, records.size());
}

TEST(BamFileTest, EmptyFileRoundTrip) {
  auto bam = WriteBam(TestHeader(), {}).ValueOrDie();
  auto [ph, pr] = ReadBam(bam).ValueOrDie();
  EXPECT_TRUE(pr.empty());
}

TEST(BamFileTest, CorruptMagicRejected) {
  auto bam = WriteBam(TestHeader(), {}).ValueOrDie();
  // Corrupt the decompressed magic by re-compressing junk as first block.
  auto junk_block = BgzfCompressBlock("NOTB0000").ValueOrDie();
  EXPECT_FALSE(ReadBamHeader(junk_block).ok());
}

TEST(BamRecordCodecTest, BodyWithUnparsedBytesRejected) {
  // A length prefix that claims more body than the record's fields use.
  Rng rng(9);
  const std::string encoded = EncodeBamRecord(MakeRecord(rng, 0));
  const std::string body = encoded.substr(4) + "zz";
  std::string bad;
  BufferWriter w(&bad);
  w.PutU32(static_cast<uint32_t>(body.size()));
  bad += body;
  size_t offset = 0;
  EXPECT_TRUE(DecodeBamRecord(bad, &offset).status().IsCorruption());
}

// Records whose first record chunk ends exactly at the 64 KiB cut,
// followed by `tail` ordinary records.
std::vector<SamRecord> RecordsFillingFirstChunk(Rng& rng, int tail) {
  std::vector<SamRecord> records;
  size_t filled = 0;
  while (filled + 2000 < kBgzfBlockSize) {
    records.push_back(MakeRecord(rng, static_cast<int>(records.size())));
    filled += EncodeBamRecord(records.back()).size();
  }
  SamRecord pad = MakeRecord(rng, static_cast<int>(records.size()));
  pad.seq.clear();
  pad.qual.clear();
  size_t gap = kBgzfBlockSize - filled - EncodeBamRecord(pad).size();
  if (gap % 2 == 1) {
    pad.qname += "x";
    --gap;
  }
  pad.seq.assign(gap / 2, 'A');
  pad.qual.assign(gap / 2, 'I');
  records.push_back(pad);
  EXPECT_EQ(filled + EncodeBamRecord(pad).size(), kBgzfBlockSize);
  for (int i = 0; i < tail; ++i) records.push_back(MakeRecord(rng, 5000 + i));
  return records;
}

// Every block of `bam`, inflated.
std::vector<std::string> InflatedBlocks(std::string_view bam) {
  std::vector<std::string> out;
  const auto blocks = BgzfListBlocks(bam).ValueOrDie();
  for (const auto& [offset, size] : blocks) {
    out.push_back(
        BgzfDecompressBlock(bam.substr(offset, size), nullptr).ValueOrDie());
  }
  return out;
}

// The cut rule written out apart from BuildBamPartition, one chunk per
// block: the header chunk (magic, then the header text), then records
// cut before one that would overflow 64 KiB and after one that fills it
// exactly.
std::vector<std::string> ReferenceChunks(const SamHeader& h,
                                         const std::vector<std::string>& values) {
  std::string header_chunk = "GBAM";
  BufferWriter(&header_chunk).PutString(WriteSamHeader(h));
  std::vector<std::string> chunks = {header_chunk, ""};
  for (const auto& v : values) {
    if (chunks.back().size() + v.size() > kBgzfBlockSize) chunks.emplace_back();
    chunks.back() += v;
    if (chunks.back().size() == kBgzfBlockSize) chunks.emplace_back();
  }
  if (chunks.back().empty()) chunks.pop_back();
  return chunks;
}

// The cut rule, checked on the inflated blocks: the header chunk stands
// alone, every record chunk holds whole records, a chunk is cut after a
// record that ends exactly at 64 KiB, and no chunk could have taken the
// next record. The bytes do not depend on the executor.
TEST(BamPartitionTest, CutRuleHoldsOnInflatedBlocks) {
  Rng rng(7);
  const SamHeader h = TestHeader();
  const std::vector<SamRecord> records = RecordsFillingFirstChunk(rng, 1500);
  std::vector<std::string> values;
  for (const auto& r : records) values.push_back(EncodeBamRecord(r));
  const std::string bam = BuildBamPartition(h, values, nullptr).ValueOrDie();
  Executor executor(3);
  EXPECT_TRUE(BuildBamPartition(h, values, &executor).ValueOrDie() == bam);
  EXPECT_TRUE(WriteBam(h, records).ValueOrDie() == bam);

  const std::vector<std::string> blocks = InflatedBlocks(bam);
  ASSERT_GT(blocks.size(), 3u);
  const std::string header_chunk = ReferenceChunks(h, {})[0];
  EXPECT_EQ(blocks[0], header_chunk);

  size_t next = 0;  // index of the next record expected
  for (size_t b = 1; b < blocks.size(); ++b) {
    size_t offset = 0;
    while (offset < blocks[b].size()) {
      auto rec = DecodeBamRecord(blocks[b], &offset);
      ASSERT_TRUE(rec.ok()) << "block " << b << ": " << rec.status().ToString();
      ASSERT_LT(next, records.size());
      EXPECT_EQ(rec.ValueOrDie(), records[next]) << "block " << b;
      ++next;
    }
    if (b + 1 < blocks.size()) {
      ASSERT_LT(next, values.size()) << "records left over for block " << b;
      EXPECT_GT(blocks[b].size() + values[next].size(), kBgzfBlockSize)
          << "block " << b << " could have taken record " << next;
    }
    if (b == 1) {
      EXPECT_EQ(blocks[b].size(), kBgzfBlockSize);
      EXPECT_EQ(next, records.size() - 1500) << "cut after the pad record";
    }
  }
  EXPECT_EQ(next, records.size());
  EXPECT_EQ(InflatedBlocks(BuildBamPartition(h, {}, &executor).ValueOrDie()),
            std::vector<std::string>{header_chunk});
}

// A split block codes the same chunk: every block inflates to exactly
// its ReferenceChunks chunk, record blocks are split blocks whose side
// stream holds exactly their records' quality strings, and the header
// block is not.
TEST(BamPartitionTest, BlocksInflateToReferenceChunks) {
  Rng rng(10);
  const SamHeader h = TestHeader();
  for (int tail : {0, 1, 3000}) {
    std::vector<SamRecord> records = RecordsFillingFirstChunk(rng, tail);
    for (size_t i = 0; i < records.size(); i += 7) {
      records[i].seq.clear();  // records with no quality string
      records[i].qual.clear();
    }
    std::vector<std::string> values;
    for (const auto& r : records) values.push_back(EncodeBamRecord(r));
    const std::string bam = WriteBam(h, records).ValueOrDie();
    EXPECT_EQ(InflatedBlocks(bam), ReferenceChunks(h, values)) << tail;

    const auto blocks = BgzfListBlocks(bam).ValueOrDie();
    EXPECT_FALSE(BgzfPeekBlock(bam).ValueOrDie().split);
    size_t next = 0;
    for (size_t b = 1; b < blocks.size(); ++b) {
      const std::string_view block =
          std::string_view(bam).substr(blocks[b].first, blocks[b].second);
      ASSERT_TRUE(BgzfPeekBlock(block).ValueOrDie().split) << b;
      std::string quals;
      const size_t raw = BgzfPeekBlock(block).ValueOrDie().raw_size;
      for (size_t used = 0; used < raw; used += values[next++].size()) {
        quals += records[next].qual;
      }
      // The payload's side_raw field, then its side stream.
      BufferReader r(block.substr(kBgzfHeaderSize));
      uint32_t main_raw = 0, side_raw = 0, main_csize = 0;
      ASSERT_TRUE(r.GetU32(&main_raw).ok());
      ASSERT_TRUE(r.GetU32(&side_raw).ok());
      ASSERT_TRUE(r.GetU32(&main_csize).ok());
      ASSERT_EQ(side_raw, quals.size()) << b;
      const std::string_view side =
          block.substr(kBgzfHeaderSize + 12 + main_csize);
      std::string inflated(side_raw, '\0');
      uLongf n = side_raw;
      ASSERT_EQ(uncompress(reinterpret_cast<Bytef*>(inflated.data()), &n,
                           reinterpret_cast<const Bytef*>(side.data()),
                           static_cast<uLong>(side.size())),
                Z_OK);
      EXPECT_EQ(inflated, quals) << b;
    }
    EXPECT_EQ(next, records.size());
  }
}

// Reduce values are copied into the BAM as they are, so each must be
// exactly one whole record: trailing or missing bytes are rejected, never
// dropped or padded.
TEST(BamPartitionTest, RejectsValueWithTrailingBytes) {
  Rng rng(8);
  const std::string value = EncodeBamRecord(MakeRecord(rng, 0));
  EXPECT_TRUE(BuildBamPartition(TestHeader(), {value}, nullptr).ok());
  EXPECT_TRUE(BuildBamPartition(TestHeader(), {value + "xx"}, nullptr)
                  .status()
                  .IsCorruption());
  EXPECT_FALSE(BuildBamPartition(TestHeader(),
                                 {value.substr(0, value.size() - 3)}, nullptr)
                   .ok());
}

}  // namespace
}  // namespace gesall
