#include "formats/bam.h"

#include <gtest/gtest.h>

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

TEST(BamWriterTest, RecordBeforeHeaderRejected) {
  std::string out;
  BamWriter w(&out);
  SamRecord r;
  EXPECT_TRUE(w.WriteRecord(r).IsInvalidArgument());
}

TEST(BamWriterTest, DoubleHeaderRejected) {
  std::string out;
  BamWriter w(&out);
  ASSERT_TRUE(w.WriteHeader(TestHeader()).ok());
  EXPECT_TRUE(w.WriteHeader(TestHeader()).IsInvalidArgument());
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

// The partition builder must reproduce WriteBam byte for byte, including
// the cut after a record that ends exactly at the 64 KiB block boundary.
TEST(BamPartitionTest, MatchesWriteBam) {
  Rng rng(7);
  const SamHeader h = TestHeader();
  std::vector<SamRecord> records;
  size_t filled = 0;
  while (filled + 2000 < kBgzfBlockSize) {
    records.push_back(MakeRecord(rng, static_cast<int>(records.size())));
    filled += EncodeBamRecord(records.back()).size();
  }
  // Size one record so the first record chunk ends exactly at the cut.
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
  ASSERT_EQ(filled + EncodeBamRecord(pad).size(), kBgzfBlockSize);
  for (int i = 0; i < 1500; ++i) records.push_back(MakeRecord(rng, 5000 + i));

  std::vector<std::string> values;
  for (const auto& r : records) values.push_back(EncodeBamRecord(r));
  const std::string want = WriteBam(h, records).ValueOrDie();
  const auto blocks = BgzfListBlocks(want).ValueOrDie();
  ASSERT_GT(blocks.size(), 3u);
  EXPECT_EQ(BgzfPeekBlock(std::string_view(want).substr(blocks[1].first))
                .ValueOrDie()
                .raw_size,
            kBgzfBlockSize);

  Executor executor(3);
  for (Executor* ex : {static_cast<Executor*>(nullptr), &executor}) {
    auto got = BuildBamPartition(h, values, ex);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got.ValueOrDie() == want);
  }
  EXPECT_EQ(BuildBamPartition(h, {}, &executor).ValueOrDie(),
            WriteBam(h, {}).ValueOrDie());
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
