// The zero-copy shuffle data path: key-prefix comparator correctness
// and ShuffleBuffer spill/merge accounting.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mr/shuffle_buffer.h"

namespace gesall {
namespace {

ShuffleEntry MakeEntry(std::string_view key) {
  return MakeShuffleEntry(key, std::string_view());
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
  // A 1-byte sort buffer forces a spill on every Add.
  ShuffleBuffer buffer(/*num_partitions=*/1, /*sort_buffer_bytes=*/1);
  ASSERT_TRUE(buffer.Add(0, "b", "2").ok());
  ASSERT_TRUE(buffer.Add(0, "a", "1").ok());
  ASSERT_TRUE(buffer.Add(0, "c", "3").ok());
  ASSERT_TRUE(buffer.Finish().ok());
  ASSERT_EQ(buffer.runs(0).size(), 1u);  // merged to one run
  const ShuffleRun& run = buffer.runs(0)[0];
  ASSERT_EQ(run.size(), 3u);
  EXPECT_EQ(run[0].key, "a");
  EXPECT_EQ(run[1].key, "b");
  EXPECT_EQ(run[2].key, "c");
  EXPECT_EQ(buffer.stats().spills, 3);
  // Merge rewrites every entry of the multi-run partition.
  EXPECT_EQ(buffer.stats().merge_bytes, 6);
}

TEST(ShuffleBufferTest, StableForEqualKeys) {
  ShuffleBuffer buffer(/*num_partitions=*/1, /*sort_buffer_bytes=*/1 << 20);
  ASSERT_TRUE(buffer.Add(0, "k", "first").ok());
  ASSERT_TRUE(buffer.Add(0, "k", "second").ok());
  ASSERT_TRUE(buffer.Finish().ok());
  const ShuffleRun& run = buffer.runs(0)[0];
  ASSERT_EQ(run.size(), 2u);
  EXPECT_EQ(run[0].value, "first");
  EXPECT_EQ(run[1].value, "second");
  EXPECT_EQ(buffer.stats().spills, 1);
  EXPECT_EQ(buffer.stats().merge_bytes, 0);  // single run: no merge
}

}  // namespace
}  // namespace gesall
