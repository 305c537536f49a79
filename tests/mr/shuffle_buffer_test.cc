// The zero-copy shuffle data path: key-prefix comparator correctness
// and ShuffleBuffer spills, merged by ShuffleRunMerger.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mr/shuffle_buffer.h"

namespace gesall {
namespace {

ShuffleEntry MakeEntry(std::string_view key) {
  return MakeShuffleEntry(key, std::string_view());
}

// Partition p's runs, merged as a reduce task merges them.
std::vector<ShuffleEntry> Merged(const ShuffleBuffer& buffer, int p) {
  std::vector<const ShuffleRun*> runs;
  for (const auto& run : buffer.runs(p)) runs.push_back(&run);
  ShuffleRunMerger merger(runs);
  std::vector<ShuffleEntry> out;
  for (const ShuffleEntry* e = merger.Next(); e != nullptr;
       e = merger.Next()) {
    out.push_back(*e);
  }
  return out;
}

// The comparator must order exactly like std::string comparison of the
// full keys, for every prefix-length relationship.
TEST(ShuffleKeyTest, OrdersLikeStringComparison) {
  const std::vector<std::string> keys = {
      "",
      std::string("\0", 1),
      std::string("a\0", 2),
      "a",
      "ab",
      "abcdefgh",          // exactly the first prefix word
      "abcdefgha",         // shares the first word
      "abcdefghz",
      std::string("abcdefgh\0", 9),  // zero past the first word
      "abcdefghijklmnop",            // exactly the 16-byte key head
      "abcdefghijklmnopq",           // shares the full head
      "abcdefghijklmnopz",
      std::string("abcdefghijklmnop\0", 17),  // zero past the head
      "b",
      "longer-than-eight-bytes",
      "longer-than-eight-bytez",
      std::string(3, '\xff'),
  };
  for (const auto& a : keys) {
    for (const auto& b : keys) {
      EXPECT_EQ(ShuffleKeyLess(MakeEntry(a), MakeEntry(b)), a < b)
          << "a=" << a << " b=" << b;
      EXPECT_EQ(ShuffleKeyEqual(MakeEntry(a), MakeEntry(b)), a == b);
    }
  }
}

TEST(ShuffleKeyTest, PrefixIsBigEndianZeroPadded) {
  EXPECT_EQ(ShuffleKeyPrefix(""), 0u);
  EXPECT_EQ(ShuffleKeyPrefix("a"), 0x6100000000000000u);
  EXPECT_EQ(ShuffleKeyPrefix("abcdefghIGNORED"),
            ShuffleKeyPrefix("abcdefgh"));
  // Zero-padding means "a" and "a\0" share a prefix; the comparator must
  // still distinguish them via the full key.
  EXPECT_EQ(ShuffleKeyPrefix("a"), ShuffleKeyPrefix(std::string("a\0", 2)));
  // The second key-head word covers bytes 8..15 — where GDPT coordinate
  // keys carry their discriminating (reference, position) bytes.
  EXPECT_EQ(ShuffleKeyWord("abcdefgh", 8), 0u);
  EXPECT_EQ(ShuffleKeyWord("abcdefghZ", 8), 0x5a00000000000000u);
  EXPECT_EQ(MakeEntry("abcdefghZ").prefix2, 0x5a00000000000000u);
}

TEST(ShuffleBufferTest, SortsAndMergesAcrossSpills) {
  // A 1-byte sort buffer forces a spill on every Add. Each spill keeps
  // its own run; the merger reads them in key order.
  ShuffleBuffer buffer(/*num_partitions=*/1, /*sort_buffer_bytes=*/1);
  ASSERT_TRUE(buffer.Add(0, "b", "2").ok());
  ASSERT_TRUE(buffer.Add(0, "a", "1").ok());
  ASSERT_TRUE(buffer.Add(0, "c", "3").ok());
  ASSERT_TRUE(buffer.Finish().ok());
  EXPECT_EQ(buffer.stats().spills, 3);
  ASSERT_EQ(buffer.runs(0).size(), 3u);  // one run per spill
  const std::vector<ShuffleEntry> merged = Merged(buffer, 0);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].key, "a");
  EXPECT_EQ(merged[1].key, "b");
  EXPECT_EQ(merged[2].key, "c");
  EXPECT_EQ(merged[0].value, "1");
}

TEST(ShuffleBufferTest, StableForEqualKeys) {
  // Equal keys keep emission order within one spill's run and, by the
  // merger's run-index tie-break, across spills.
  for (int64_t sort_buffer : {int64_t{1} << 20, int64_t{1}}) {
    ShuffleBuffer buffer(/*num_partitions=*/1, sort_buffer);
    ASSERT_TRUE(buffer.Add(0, "k", "first").ok());
    ASSERT_TRUE(buffer.Add(0, "k", "second").ok());
    ASSERT_TRUE(buffer.Finish().ok());
    const int64_t spills = sort_buffer == 1 ? 2 : 1;
    EXPECT_EQ(buffer.stats().spills, spills);
    EXPECT_EQ(buffer.runs(0).size(), static_cast<size_t>(spills));
    const std::vector<ShuffleEntry> merged = Merged(buffer, 0);
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_EQ(merged[0].value, "first");
    EXPECT_EQ(merged[1].value, "second");
  }
}

}  // namespace
}  // namespace gesall
