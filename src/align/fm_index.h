// FM-index (Burrows-Wheeler transform + popcount occurrence blocks +
// sampled suffix array) over the A/C/G/T alphabet, supporting backward
// search for exact seed matching and position lookup — the core of the
// BWA-style aligner [Li & Durbin 2009].
//
// The BWT is stored only inside the occurrence blocks, in the shape of
// BWA-MEM2's occurrence checkpoints [Vasimuddin et al., IPDPS 2019]: one
// 64-byte block per 64 BWT positions, holding the count of each symbol
// before the block and one 64-bit mask per symbol marking where it
// occurs inside the block. A rank query is one block load plus a masked
// popcount, and the blocks take one byte per indexed base.

#ifndef GESALL_ALIGN_FM_INDEX_H_
#define GESALL_ALIGN_FM_INDEX_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gesall {

/// \brief SA interval [lo, hi) of suffixes prefixed by the query pattern.
struct SaInterval {
  int64_t lo = 0;
  int64_t hi = 0;
  int64_t size() const { return hi - lo; }
  bool empty() const { return hi <= lo; }
};

/// \brief FM-index over text of alphabet {$, A, C, G, T}; other letters are
/// coerced to 'A' at build time and never match exactly (the aligner's
/// Smith-Waterman stage tolerates them as mismatches).
///
/// Ranks come from `blocks_`: block `b` covers BWT positions
/// [64b, 64b + 64). There are n/64 + 1 blocks for n BWT positions, so the
/// block that `Occ(r, n)` reads exists and carries the full counts even
/// when n is a multiple of 64 and that block covers no position. The
/// sentinel sets no mask bit; `Locate` never reads it, because its SA
/// value 0 is always sampled.
class FmIndex {
 public:
  /// Builds the index. `text` must NOT contain '\0'; a sentinel is
  /// appended internally. `sa_sample_rate` trades memory for locate speed.
  explicit FmIndex(const std::string& text, int sa_sample_rate = 8);

  /// Length of the indexed text (without the sentinel).
  int64_t text_length() const { return n_ - 1; }

  /// Backward search for an exact occurrence of `pattern`.
  SaInterval Search(std::string_view pattern) const;

  /// Extends an interval by one character on the left: interval for
  /// (c + current pattern). Empty result if no occurrence.
  SaInterval ExtendLeft(const SaInterval& interval, char c) const;

  /// Interval covering all suffixes (the search starting point).
  SaInterval WholeInterval() const { return {0, n_}; }

  /// Text position of the suffix at SA index `sa_index`.
  int64_t Locate(int64_t sa_index) const;

  /// Text positions for every suffix in the interval (capped at `limit`).
  std::vector<int64_t> LocateAll(const SaInterval& interval,
                                 int64_t limit) const;

  /// Appends the same positions to `out` without allocating (beyond
  /// `out`'s own growth) — the aligner hot path reuses one buffer.
  void LocateAllInto(const SaInterval& interval, int64_t limit,
                     std::vector<int64_t>* out) const;

 private:
  /// 64 BWT positions in one cache line. Index s = rank - 1 (A, C, G, T).
  struct alignas(64) OccBlock {
    std::array<int64_t, 4> before;  // occurrences of s in BWT[0, 64b)
    std::array<uint64_t, 4> mask;   // bit j: BWT[64b + j] is s
  };
  static_assert(sizeof(OccBlock) == 64);

  static int CharRank(char c);

  /// Number of occurrences of character-rank `r` (1..4) in BWT[0, pos).
  int64_t Occ(int r, int64_t pos) const;

  int64_t n_ = 0;                 // text length including sentinel
  std::array<int64_t, 6> c_{};    // C[r]: # of chars with rank < r
  std::vector<OccBlock> blocks_;  // n_ / 64 + 1 occurrence blocks
  int sa_sample_rate_;
  std::vector<int64_t> sampled_sa_;     // SA values at sampled SA indexes
  std::vector<uint64_t> bitmap_words_;  // bitmap: is SA index sampled?
  std::vector<int64_t> word_rank_;      // prefix popcounts of bitmap words
};

}  // namespace gesall

#endif  // GESALL_ALIGN_FM_INDEX_H_
