#include "align/fm_index.h"

#include <bit>

#include "align/suffix_array.h"
#include "util/logging.h"

namespace gesall {

int FmIndex::CharRank(char c) {
  switch (c) {
    case 'A':
      return 1;
    case 'C':
      return 2;
    case 'G':
      return 3;
    case 'T':
      return 4;
    default:
      return -1;
  }
}

FmIndex::FmIndex(const std::string& text, int sa_sample_rate)
    : sa_sample_rate_(sa_sample_rate) {
  // Coerce to rank bytes: sentinel 0, A..T -> 1..4 (N and friends -> 1).
  std::string ranks(text.size() + 1, '\0');
  for (size_t i = 0; i < text.size(); ++i) {
    int r = CharRank(text[i]);
    ranks[i] = static_cast<char>(r < 0 ? 1 : r);
  }
  n_ = static_cast<int64_t>(ranks.size());

  std::vector<int32_t> sa = BuildSuffixArray(ranks);

  // BWT masks and SA samples (sampled by text position: SA value % rate
  // == 0). BWT[i] is ranks[SA[i] - 1]; the sentinel (SA[i] == 0) sets no
  // mask bit.
  blocks_.assign(n_ / 64 + 1, OccBlock{});
  std::vector<uint64_t> bitmap((n_ + 63) / 64, 0);
  std::vector<std::pair<int64_t, int64_t>> samples;  // (sa_index, value)
  for (int64_t i = 0; i < n_; ++i) {
    int64_t v = sa[i];
    if (v != 0) blocks_[i / 64].mask[ranks[v - 1] - 1] |= 1ULL << (i % 64);
    if (v % sa_sample_rate_ == 0) {
      bitmap[i / 64] |= (1ULL << (i % 64));
      samples.emplace_back(i, v);
    }
  }
  // Pack the bitmap into bytes plus a per-word rank prefix for O(1) lookup.
  bitmap_words_ = std::move(bitmap);
  word_rank_.resize(bitmap_words_.size() + 1, 0);
  for (size_t w = 0; w < bitmap_words_.size(); ++w) {
    word_rank_[w + 1] =
        word_rank_[w] + std::popcount(bitmap_words_[w]);
  }
  sampled_sa_.resize(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    sampled_sa_[i] = samples[i].second;
  }

  // Counts before each block, including the last one, which covers no
  // position when n_ % 64 == 0 but is what Occ(r, n_) reads.
  std::array<int64_t, 4> running{};
  for (OccBlock& block : blocks_) {
    block.before = running;
    for (int s = 0; s < 4; ++s) running[s] += std::popcount(block.mask[s]);
  }

  // C table: counts of characters strictly smaller than each rank.
  c_[0] = 0;
  c_[1] = 1;  // the sentinel
  for (int r = 2; r < 6; ++r) c_[r] = c_[r - 1] + running[r - 2];
}

int64_t FmIndex::Occ(int r, int64_t pos) const {
  const OccBlock& block = blocks_[pos / 64];
  uint64_t below = (1ULL << (pos % 64)) - 1;
  return block.before[r - 1] + std::popcount(block.mask[r - 1] & below);
}

SaInterval FmIndex::ExtendLeft(const SaInterval& interval, char c) const {
  int r = CharRank(c);
  if (r < 0 || interval.empty()) return {0, 0};
  SaInterval out;
  out.lo = c_[r] + Occ(r, interval.lo);
  out.hi = c_[r] + Occ(r, interval.hi);
  return out;
}

SaInterval FmIndex::Search(std::string_view pattern) const {
  SaInterval interval = WholeInterval();
  for (auto it = pattern.rbegin(); it != pattern.rend(); ++it) {
    interval = ExtendLeft(interval, *it);
    if (interval.empty()) break;
  }
  return interval;
}

int64_t FmIndex::Locate(int64_t sa_index) const {
  int64_t steps = 0;
  int64_t pos = sa_index;
  for (;;) {
    // Sampled?
    uint64_t word = bitmap_words_[pos / 64];
    if (word & (1ULL << (pos % 64))) {
      int64_t rank = word_rank_[pos / 64] +
                     std::popcount(word & ((1ULL << (pos % 64)) - 1));
      return sampled_sa_[rank] + steps;
    }
    // BWT[pos] is the symbol whose mask has the bit; it cannot be the
    // sentinel, whose SA value 0 is always sampled, so no bit means T.
    const OccBlock& block = blocks_[pos / 64];
    int s = 0;
    while (s < 3 && (block.mask[s] & (1ULL << (pos % 64))) == 0) ++s;
    pos = c_[s + 1] + Occ(s + 1, pos);
    ++steps;
  }
}

std::vector<int64_t> FmIndex::LocateAll(const SaInterval& interval,
                                        int64_t limit) const {
  std::vector<int64_t> out;
  out.reserve(std::min<int64_t>(interval.size(), limit));
  LocateAllInto(interval, limit, &out);
  return out;
}

void FmIndex::LocateAllInto(const SaInterval& interval, int64_t limit,
                            std::vector<int64_t>* out) const {
  int64_t count = std::min<int64_t>(interval.size(), limit);
  for (int64_t i = 0; i < count; ++i) {
    out->push_back(Locate(interval.lo + i));
  }
}

}  // namespace gesall
