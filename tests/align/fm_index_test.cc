#include "align/fm_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string_view>

#include "util/rng.h"

namespace gesall {
namespace {

std::vector<int64_t> NaiveOccurrences(const std::string& text,
                                      const std::string& pattern) {
  std::vector<int64_t> out;
  size_t pos = text.find(pattern);
  while (pos != std::string::npos) {
    out.push_back(static_cast<int64_t>(pos));
    pos = text.find(pattern, pos + 1);
  }
  return out;
}

std::string RandomDna(Rng& rng, int len) {
  std::string s(len, 'A');
  for (auto& c : s) c = "ACGT"[rng.Uniform(4)];
  return s;
}

TEST(FmIndexTest, FindsAllOccurrences) {
  std::string text = "ACGTACGTTACGT";
  FmIndex fm(text);
  SaInterval hit = fm.Search("ACGT");
  EXPECT_EQ(hit.size(), 3);
  auto positions = fm.LocateAll(hit, 100);
  std::sort(positions.begin(), positions.end());
  EXPECT_EQ(positions, (std::vector<int64_t>{0, 4, 9}));
}

TEST(FmIndexTest, AbsentPatternEmpty) {
  FmIndex fm("ACGTACGT");
  EXPECT_TRUE(fm.Search("TTTT").empty());
}

TEST(FmIndexTest, InvalidCharacterNeverMatches) {
  FmIndex fm("ACGTACGT");
  EXPECT_TRUE(fm.Search("ACNG").empty());
}

TEST(FmIndexTest, TextLength) {
  FmIndex fm("ACGT");
  EXPECT_EQ(fm.text_length(), 4);
}

TEST(FmIndexTest, MatchesNaiveOnRandomText) {
  Rng rng(11);
  std::string text = RandomDna(rng, 5000);
  FmIndex fm(text);
  for (int trial = 0; trial < 50; ++trial) {
    int plen = 4 + static_cast<int>(rng.Uniform(20));
    // Half the probes are substrings (guaranteed hits).
    std::string pattern;
    if (trial % 2 == 0) {
      int64_t start = rng.Uniform(text.size() - plen);
      pattern = text.substr(start, plen);
    } else {
      pattern = RandomDna(rng, plen);
    }
    auto expected = NaiveOccurrences(text, pattern);
    SaInterval hit = fm.Search(pattern);
    ASSERT_EQ(hit.size(), static_cast<int64_t>(expected.size()))
        << pattern;
    auto got = fm.LocateAll(hit, 10'000);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << pattern;
  }
}

TEST(FmIndexTest, LocateConsistentAcrossSampleRates) {
  Rng rng(13);
  std::string text = RandomDna(rng, 2000);
  FmIndex fm1(text, /*sa_sample_rate=*/1);
  FmIndex fm8(text, /*sa_sample_rate=*/8);
  FmIndex fm32(text, /*sa_sample_rate=*/32);
  for (int trial = 0; trial < 20; ++trial) {
    int64_t start = rng.Uniform(text.size() - 12);
    std::string pattern = text.substr(start, 12);
    auto a = fm1.LocateAll(fm1.Search(pattern), 1000);
    auto b = fm8.LocateAll(fm8.Search(pattern), 1000);
    auto c = fm32.LocateAll(fm32.Search(pattern), 1000);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::sort(c.begin(), c.end());
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
  }
}

TEST(FmIndexTest, ExtendLeftIncremental) {
  std::string text = "ACGTACGTTACGT";
  FmIndex fm(text);
  // Building "CGT" by extending T <- GT <- CGT must equal direct search.
  SaInterval step = fm.WholeInterval();
  step = fm.ExtendLeft(step, 'T');
  step = fm.ExtendLeft(step, 'G');
  step = fm.ExtendLeft(step, 'C');
  SaInterval direct = fm.Search("CGT");
  EXPECT_EQ(step.lo, direct.lo);
  EXPECT_EQ(step.hi, direct.hi);
}

TEST(FmIndexTest, WholeIntervalCoversEverySuffix) {
  FmIndex fm("ACGT");
  EXPECT_EQ(fm.WholeInterval().size(), 5);  // 4 + sentinel
}

TEST(FmIndexTest, RepetitiveTextManyHits) {
  std::string text;
  for (int i = 0; i < 100; ++i) text += "ACGT";
  FmIndex fm(text);
  SaInterval hit = fm.Search("ACGTACGT");
  EXPECT_EQ(hit.size(), 99 - 1 + 1);
  auto some = fm.LocateAll(hit, 5);
  EXPECT_EQ(some.size(), 5u);
}

// Every rank and every Locate against a BWT and suffix array built by
// sorting suffixes. The lengths straddle the 64-position occurrence
// blocks: at 63, 127, 191 and 4095 the BWT with its sentinel fills whole
// blocks, so the last rank, Occ(r, n), reads a block that covers no
// position and must still carry the full counts.
TEST(FmIndexTest, EveryRankAndLocateMatchNaiveBwt) {
  Rng rng(17);
  for (int len : {1, 2, 62, 63, 64, 65, 126, 127, 128, 129, 191, 1000, 4095,
                  4096}) {
    std::string text(len, 'A');
    for (auto& c : text) c = "ACGTN"[rng.Uniform(5)];
    // The index coerces N to A and appends a sentinel below every symbol.
    std::string coerced = text;
    std::replace(coerced.begin(), coerced.end(), 'N', 'A');
    coerced.push_back('\0');
    const int64_t n = static_cast<int64_t>(coerced.size());
    std::vector<int64_t> sa(n);
    std::iota(sa.begin(), sa.end(), 0);
    std::string_view view(coerced);
    std::sort(sa.begin(), sa.end(), [&](int64_t a, int64_t b) {
      return view.substr(a) < view.substr(b);
    });

    for (int rate : {1, 8, 32}) {
      FmIndex fm(text, rate);
      ASSERT_EQ(fm.WholeInterval().size(), n) << len;
      for (char c : std::string("ACGT")) {
        // C[c] + Occ(c, p): the number of symbols below c, plus the
        // occurrences of c in BWT[0, p).
        int64_t rank = std::count_if(coerced.begin(), coerced.end(),
                                     [c](char x) { return x < c; });
        std::vector<int64_t> expected = {rank};
        for (int64_t i = 0; i < n; ++i) {
          if (sa[i] > 0 && coerced[sa[i] - 1] == c) ++rank;
          expected.push_back(rank);
        }
        for (int64_t p = 0; p < n; ++p) {
          SaInterval got = fm.ExtendLeft({p, p + 1}, c);
          ASSERT_EQ(got.lo, expected[p]) << len << " " << c << " " << p;
          ASSERT_EQ(got.hi, expected[p + 1]) << len << " " << c << " " << p;
        }
      }
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(fm.Locate(i), sa[i]) << len << " rate " << rate << " " << i;
      }
    }
  }
}

}  // namespace
}  // namespace gesall
