#include "gesall/linear_index.h"

#include <gtest/gtest.h>

#include <set>

#include "formats/bam.h"
#include "util/io.h"
#include "util/rng.h"

namespace gesall {
namespace {

SamHeader TestHeader() {
  SamHeader h;
  h.refs = {{"chr1", 1'000'000}};
  h.sort_order = "coordinate";
  return h;
}

// Coordinate-sorted records over [0, span) with random gaps.
std::vector<SamRecord> SortedRecords(int n, int64_t span, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> positions;
  for (int i = 0; i < n; ++i) {
    positions.push_back(static_cast<int64_t>(
        rng.Uniform(static_cast<uint64_t>(span - 200))));
  }
  std::sort(positions.begin(), positions.end());
  std::vector<SamRecord> records;
  for (int i = 0; i < n; ++i) {
    SamRecord r;
    r.qname = "r" + std::to_string(i);
    r.ref_id = 0;
    r.pos = positions[i];
    r.mapq = 60;
    r.cigar = {{'M', 100}};
    r.seq.resize(100);
    for (auto& c : r.seq) c = "ACGT"[rng.Uniform(4)];
    r.qual.resize(100);
    for (auto& c : r.qual) c = static_cast<char>(33 + rng.Uniform(40));
    records.push_back(std::move(r));
  }
  return records;
}

class LinearIndexTest : public testing::Test {
 protected:
  void SetUp() override {
    header_ = TestHeader();
    records_ = SortedRecords(4000, 900'000, 3);
    bam_ = WriteBam(header_, records_).ValueOrDie();
    index_ = std::make_unique<LinearBamIndex>(
        LinearBamIndex::Build(bam_).ValueOrDie());
  }

  SamHeader header_;
  std::vector<SamRecord> records_;
  std::string bam_;
  std::unique_ptr<LinearBamIndex> index_;
};

TEST_F(LinearIndexTest, CountsRecords) {
  EXPECT_EQ(index_->record_count(), 4000);
  EXPECT_EQ(index_->max_span(), 100);
  EXPECT_GT(index_->window_count(), 10u);
}

TEST_F(LinearIndexTest, RegionReadReturnsExactOverlaps) {
  for (auto [start, end] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 10'000}, {123'456, 234'567}, {899'000, 900'000},
           {500'000, 500'001}}) {
    auto got = ReadBamRegion(bam_, *index_, start, end).ValueOrDie();
    std::set<std::string> got_names;
    for (const auto& r : got) got_names.insert(r.qname);
    std::set<std::string> expected;
    for (const auto& r : records_) {
      if (r.pos < end && r.AlignmentEnd() > start) expected.insert(r.qname);
    }
    EXPECT_EQ(got_names, expected) << start << ".." << end;
  }
}

TEST_F(LinearIndexTest, RegionReadPrunesIo) {
  // A narrow region must not decode the whole file: the returned offsets
  // bound a small byte range.
  uint64_t lo = index_->LowerBoundOffset(400'000);
  uint64_t hi = index_->UpperBoundOffset(410'000);
  int64_t byte_span =
      static_cast<int64_t>(hi >> 16) - static_cast<int64_t>(lo >> 16);
  EXPECT_GT(byte_span, 0);
  EXPECT_LT(byte_span, static_cast<int64_t>(bam_.size()) / 4);
}

TEST_F(LinearIndexTest, SerializationRoundTrip) {
  auto restored =
      LinearBamIndex::Deserialize(index_->Serialize()).ValueOrDie();
  EXPECT_EQ(restored.record_count(), index_->record_count());
  EXPECT_EQ(restored.max_span(), index_->max_span());
  EXPECT_EQ(restored.window_count(), index_->window_count());
  auto a = ReadBamRegion(bam_, *index_, 200'000, 250'000).ValueOrDie();
  auto b = ReadBamRegion(bam_, restored, 200'000, 250'000).ValueOrDie();
  EXPECT_EQ(a.size(), b.size());
}

TEST_F(LinearIndexTest, EmptyRegion) {
  auto got = ReadBamRegion(bam_, *index_, 990'000, 1'000'000).ValueOrDie();
  EXPECT_TRUE(got.empty());
}

TEST(LinearIndexEdgeTest, EmptyBam) {
  auto bam = WriteBam(TestHeader(), {}).ValueOrDie();
  auto index = LinearBamIndex::Build(bam).ValueOrDie();
  EXPECT_EQ(index.record_count(), 0);
  auto got = ReadBamRegion(bam, index, 0, 1'000'000).ValueOrDie();
  EXPECT_TRUE(got.empty());
}

TEST(LinearIndexEdgeTest, UnmappedTailIgnored) {
  auto records = SortedRecords(100, 100'000, 5);
  SamRecord unmapped;
  unmapped.qname = "u";
  unmapped.flag = sam_flags::kUnmapped;
  unmapped.seq = std::string(100, 'A');
  unmapped.qual = std::string(100, 'I');
  records.push_back(unmapped);
  auto bam = WriteBam(TestHeader(), records).ValueOrDie();
  auto index = LinearBamIndex::Build(bam).ValueOrDie();
  EXPECT_EQ(index.record_count(), 101);
  auto got = ReadBamRegion(bam, index, 0, 1'000'000).ValueOrDie();
  EXPECT_EQ(got.size(), 100u);  // unmapped record not returned
}

// Round 5 reads each sidecar back from the DFS, so its window count is
// untrusted: a 40-byte sidecar claiming 2^32 windows fails as Corruption
// before any window vector is sized from the count, and so does every
// truncated prefix of a real sidecar.
TEST(LinearIndexEdgeTest, LyingWindowCountFailsAsCorruption) {
  std::string lying;
  BufferWriter w(&lying);
  w.PutU64(uint64_t{1} << 32);  // window count
  w.PutU64(0);                  // the one window present
  w.PutU64(0);                  // end offset
  w.PutI64(0);                  // record count
  w.PutI64(0);                  // max span
  ASSERT_EQ(lying.size(), 40u);
  auto lied = LinearBamIndex::Deserialize(lying);
  EXPECT_TRUE(lied.status().IsCorruption()) << lied.status().ToString();

  auto bam =
      WriteBam(TestHeader(), SortedRecords(500, 200'000, 7)).ValueOrDie();
  const std::string sidecar =
      LinearBamIndex::Build(bam).ValueOrDie().Serialize();
  ASSERT_TRUE(LinearBamIndex::Deserialize(sidecar).ok());
  for (size_t n = 0; n < sidecar.size(); ++n) {
    auto cut = LinearBamIndex::Deserialize(sidecar.substr(0, n));
    EXPECT_TRUE(cut.status().IsCorruption())
        << n << " bytes: " << cut.status().ToString();
  }
}

}  // namespace
}  // namespace gesall
