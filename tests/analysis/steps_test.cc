#include "analysis/steps.h"

#include <gtest/gtest.h>

namespace gesall {
namespace {

SamHeader TestHeader() {
  SamHeader h;
  h.refs = {{"chr1", 1000}, {"chr2", 500}};
  return h;
}

SamRecord Mapped(const std::string& name, int32_t ref, int64_t pos,
                 uint16_t extra_flags = 0) {
  SamRecord r;
  r.qname = name;
  r.flag = sam_flags::kPaired | extra_flags;
  r.ref_id = ref;
  r.pos = pos;
  r.mapq = 60;
  r.cigar = {{'M', 100}};
  r.seq = std::string(100, 'A');
  r.qual = std::string(100, 'I');
  return r;
}

TEST(AddReplaceReadGroupsTest, TagsEveryRecord) {
  SamHeader h = TestHeader();
  std::vector<SamRecord> records = {Mapped("r1", 0, 10), Mapped("r2", 0, 20)};
  ReadGroup rg{"rg9", "NA12878", "lib1"};
  ASSERT_TRUE(AddReplaceReadGroups(rg, &h, &records).ok());
  ASSERT_EQ(h.read_groups.size(), 1u);
  EXPECT_EQ(h.read_groups[0].id, "rg9");
  for (const auto& r : records) EXPECT_EQ(r.GetTag("RG"), "rg9");
}

TEST(AddReplaceReadGroupsTest, ReplacesExistingGroup) {
  SamHeader h = TestHeader();
  std::vector<SamRecord> records = {Mapped("r1", 0, 10)};
  records[0].SetTag("RG", 'Z', "old");
  ASSERT_TRUE(
      AddReplaceReadGroups({"new", "s", "l"}, &h, &records).ok());
  EXPECT_EQ(records[0].GetTag("RG"), "new");
}

TEST(AddReplaceReadGroupsTest, RejectsEmptyId) {
  SamHeader h = TestHeader();
  std::vector<SamRecord> records;
  EXPECT_TRUE(
      AddReplaceReadGroups({"", "s", "l"}, &h, &records).IsInvalidArgument());
}

TEST(CleanSamTest, ClipsOverhangAtReferenceEnd) {
  SamHeader h = TestHeader();
  // chr2 has length 500; alignment at 450 with 100M overhangs by 50.
  std::vector<SamRecord> records = {Mapped("r1", 1, 450)};
  auto stats = CleanSam(h, &records);
  EXPECT_EQ(stats.clipped_overhangs, 1);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].AlignmentEnd(), 500);
  EXPECT_EQ(CigarToString(records[0].cigar), "50M50S");
  // Read length must still be fully consumed.
  EXPECT_EQ(CigarQueryLength(records[0].cigar), 100);
}

TEST(CleanSamTest, NormalizesUnmapped) {
  SamHeader h = TestHeader();
  SamRecord r = Mapped("r1", 0, 10);
  r.SetFlag(sam_flags::kUnmapped, true);  // unmapped but cigar/mapq set
  std::vector<SamRecord> records = {r};
  auto stats = CleanSam(h, &records);
  EXPECT_EQ(stats.unmapped_normalized, 1);
  EXPECT_TRUE(records[0].cigar.empty());
  EXPECT_EQ(records[0].mapq, 0);
}

TEST(CleanSamTest, DropsCigarLengthMismatch) {
  SamHeader h = TestHeader();
  SamRecord r = Mapped("r1", 0, 10);
  r.cigar = {{'M', 50}};  // consumes 50 but seq is 100
  std::vector<SamRecord> records = {r, Mapped("r2", 0, 10)};
  auto stats = CleanSam(h, &records);
  EXPECT_EQ(stats.dropped_invalid, 1);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].qname, "r2");
}

TEST(CleanSamTest, CleanInputUntouched) {
  SamHeader h = TestHeader();
  std::vector<SamRecord> records = {Mapped("r1", 0, 10)};
  auto before = records;
  auto stats = CleanSam(h, &records);
  EXPECT_EQ(stats.clipped_overhangs, 0);
  EXPECT_EQ(stats.dropped_invalid, 0);
  EXPECT_EQ(records, before);
}

TEST(FixMateInfoTest, SetsMateFields) {
  std::vector<SamRecord> records = {Mapped("p1", 0, 100),
                                    Mapped("p1", 0, 400)};
  records[1].SetFlag(sam_flags::kReverse, true);
  // Break the mate info on purpose.
  records[0].mate_ref_id = -1;
  records[0].mate_pos = -1;
  records[0].tlen = 0;
  ASSERT_TRUE(FixMateInformation(&records).ok());
  EXPECT_EQ(records[0].mate_ref_id, 0);
  EXPECT_EQ(records[0].mate_pos, 400);
  EXPECT_TRUE(records[0].IsMateReverse());
  EXPECT_EQ(records[0].tlen, 400);
  EXPECT_EQ(records[1].tlen, -400);
}

TEST(FixMateInfoTest, UnmappedMateAdoptsCoordinates) {
  std::vector<SamRecord> records = {Mapped("p1", 0, 100),
                                    Mapped("p1", 0, 100)};
  records[1].SetFlag(sam_flags::kUnmapped, true);
  records[1].ref_id = -1;
  records[1].pos = -1;
  ASSERT_TRUE(FixMateInformation(&records).ok());
  EXPECT_TRUE(records[0].IsMateUnmapped());
  EXPECT_EQ(records[0].mate_ref_id, 0);
  EXPECT_EQ(records[0].mate_pos, 100);
  EXPECT_EQ(records[0].tlen, 0);
}

TEST(FixMateInfoTest, RejectsUngroupedInput) {
  std::vector<SamRecord> records = {Mapped("p1", 0, 100),
                                    Mapped("p2", 0, 400)};
  EXPECT_TRUE(FixMateInformation(&records).IsInvalidArgument());
}

TEST(SortSamTest, CoordinateOrder) {
  SamHeader h = TestHeader();
  std::vector<SamRecord> records = {Mapped("a", 1, 50), Mapped("b", 0, 99),
                                    Mapped("c", 0, 10)};
  SamRecord unmapped;
  unmapped.qname = "u";
  unmapped.flag = sam_flags::kUnmapped;
  records.push_back(unmapped);
  SortSamByCoordinate(&h, &records);
  EXPECT_EQ(h.sort_order, "coordinate");
  EXPECT_EQ(records[0].qname, "c");
  EXPECT_EQ(records[1].qname, "b");
  EXPECT_EQ(records[2].qname, "a");
  EXPECT_EQ(records[3].qname, "u");  // unmapped last
}

TEST(SortSamTest, NameOrder) {
  SamHeader h = TestHeader();
  std::vector<SamRecord> records = {Mapped("z", 0, 1), Mapped("a", 0, 2),
                                    Mapped("m", 0, 3)};
  SortSamByName(&h, &records);
  EXPECT_EQ(h.sort_order, "queryname");
  EXPECT_EQ(records[0].qname, "a");
  EXPECT_EQ(records[2].qname, "z");
}

}  // namespace
}  // namespace gesall
