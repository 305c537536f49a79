#include "util/bgzf.h"

#include <gtest/gtest.h>

#include "util/executor.h"
#include "util/io.h"
#include "util/rng.h"

namespace gesall {
namespace {

std::string RandomBytes(Rng& rng, size_t n) {
  std::string s(n, '\0');
  for (auto& c : s) c = static_cast<char>(rng.Uniform(256));
  return s;
}

TEST(BgzfTest, SingleBlockRoundTrip) {
  auto block = BgzfCompressBlock("hello bgzf").ValueOrDie();
  size_t consumed = 0;
  auto data = BgzfDecompressBlock(block, &consumed).ValueOrDie();
  EXPECT_EQ(data, "hello bgzf");
  EXPECT_EQ(consumed, block.size());
}

TEST(BgzfTest, RejectsOversizedPayload) {
  std::string big(kBgzfBlockSize + 1, 'a');
  EXPECT_TRUE(BgzfCompressBlock(big).status().IsInvalidArgument());
}

TEST(BgzfTest, RejectsBadMagic) {
  std::string junk = "XXXX00000000";
  EXPECT_TRUE(BgzfDecompressBlock(junk, nullptr).status().IsCorruption());
}

TEST(BgzfTest, WriterSplitsIntoBlocks) {
  Rng rng(5);
  std::string payload = RandomBytes(rng, 3 * kBgzfBlockSize + 777);
  std::string compressed;
  BgzfWriter w(&compressed);
  ASSERT_TRUE(w.Append(payload).ok());
  ASSERT_TRUE(w.Flush().ok());

  auto blocks = BgzfListBlocks(compressed).ValueOrDie();
  EXPECT_EQ(blocks.size(), 4u);

  BgzfReader r(compressed);
  std::string out;
  ASSERT_TRUE(r.Read(payload.size(), &out).ok());
  EXPECT_EQ(out, payload);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BgzfTest, ReadAcrossBlockBoundary) {
  std::string compressed;
  BgzfWriter w(&compressed);
  std::string a(kBgzfBlockSize - 10, 'a');
  ASSERT_TRUE(w.Append(a).ok());
  ASSERT_TRUE(w.Append(std::string(20, 'b')).ok());
  ASSERT_TRUE(w.Flush().ok());

  BgzfReader r(compressed);
  std::string out;
  ASSERT_TRUE(r.Seek((0ULL << 16) | (kBgzfBlockSize - 10 - 5)).ok());
  ASSERT_TRUE(r.Read(15, &out).ok());
  EXPECT_EQ(out, "aaaaabbbbbbbbbb");
}

TEST(BgzfTest, VirtualOffsetsSeekable) {
  std::string compressed;
  BgzfWriter w(&compressed);
  ASSERT_TRUE(w.Append("first-chunk").ok());
  uint64_t voffset_before_flush = w.Tell();
  EXPECT_EQ(voffset_before_flush & 0xffff, 11u);
  ASSERT_TRUE(w.Flush().ok());
  uint64_t voffset = w.Tell();
  ASSERT_TRUE(w.Append("second-chunk").ok());
  ASSERT_TRUE(w.Flush().ok());

  BgzfReader r(compressed);
  ASSERT_TRUE(r.Seek(voffset).ok());
  std::string out;
  ASSERT_TRUE(r.Read(12, &out).ok());
  EXPECT_EQ(out, "second-chunk");
}

TEST(BgzfTest, ReadPastEndFails) {
  std::string compressed;
  BgzfWriter w(&compressed);
  ASSERT_TRUE(w.Append("tiny").ok());
  ASSERT_TRUE(w.Flush().ok());
  BgzfReader r(compressed);
  std::string out;
  EXPECT_TRUE(r.Read(5, &out).IsOutOfRange());
}

TEST(BgzfTest, EmptyStreamAtEnd) {
  BgzfReader r("");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BgzfTest, TruncatedStreamDetected) {
  auto block = BgzfCompressBlock("payload-data").ValueOrDie();
  std::string truncated = block.substr(0, block.size() - 3);
  EXPECT_FALSE(BgzfListBlocks(truncated).ok());
}

TEST(BgzfTest, CompressionShrinksRepetitiveData) {
  std::string data(kBgzfBlockSize, 'G');
  auto block = BgzfCompressBlock(data).ValueOrDie();
  EXPECT_LT(block.size(), data.size() / 10);
}

TEST(BgzfTest, EmptyAppendAndDoubleFlushEmitNothing) {
  std::string compressed;
  BgzfWriter w(&compressed);
  ASSERT_TRUE(w.Append("").ok());
  ASSERT_TRUE(w.Flush().ok());
  EXPECT_TRUE(compressed.empty());
  EXPECT_EQ(w.stats().blocks, 0);

  ASSERT_TRUE(w.Append("data").ok());
  ASSERT_TRUE(w.Flush().ok());
  size_t after_first = compressed.size();
  ASSERT_TRUE(w.Flush().ok());  // idempotent: nothing pending
  EXPECT_EQ(compressed.size(), after_first);
  EXPECT_EQ(w.stats().blocks, 1);
  EXPECT_EQ(BgzfListBlocks(compressed).ValueOrDie().size(), 1u);
}

TEST(BgzfTest, StoredFallbackForIncompressibleBlock) {
  Rng rng(11);
  std::string noise = RandomBytes(rng, 4096);
  auto block = BgzfCompressBlock(noise).ValueOrDie();
  auto info = BgzfPeekBlock(block).ValueOrDie();
  EXPECT_TRUE(info.stored);
  // A stored frame never grows past raw size + header.
  EXPECT_EQ(block.size(), noise.size() + kBgzfHeaderSize);
  EXPECT_EQ(BgzfDecompressBlock(block, nullptr).ValueOrDie(), noise);
}

TEST(BgzfTest, WriterCountsStoredBlocksInStats) {
  Rng rng(12);
  std::string compressed;
  BgzfWriter w(&compressed);
  ASSERT_TRUE(w.Append(RandomBytes(rng, kBgzfBlockSize)).ok());  // stored
  ASSERT_TRUE(w.Append(std::string(kBgzfBlockSize, 'A')).ok());  // deflated
  ASSERT_TRUE(w.Flush().ok());
  EXPECT_EQ(w.stats().blocks, 2);
  EXPECT_EQ(w.stats().stored_blocks, 1);
  EXPECT_EQ(w.stats().raw_bytes, static_cast<int64_t>(2 * kBgzfBlockSize));
  EXPECT_EQ(w.stats().stored_bytes, static_cast<int64_t>(compressed.size()));
}

TEST(BgzfTest, CompressionLevelKnob) {
  std::string data(kBgzfBlockSize, 'x');
  for (int level : {-1, 0, 1, 6, 9}) {
    auto block = BgzfCompressBlock(data, level).ValueOrDie();
    EXPECT_EQ(BgzfDecompressBlock(block, nullptr).ValueOrDie(), data)
        << "level " << level;
  }
  EXPECT_TRUE(BgzfCompressBlock(data, 10).status().IsInvalidArgument());
  EXPECT_TRUE(BgzfCompressBlock(data, -2).status().IsInvalidArgument());
  std::string out;
  BgzfWriter bad(&out, 42);
  Status st = bad.Append("x");
  if (st.ok()) st = bad.Flush();
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST(BgzfTest, PeekFailsCleanlyOnEveryTruncatedHeaderPrefix) {
  auto block = BgzfCompressBlock("peek-me").ValueOrDie();
  for (size_t n = 0; n < kBgzfHeaderSize; ++n) {
    Status st = BgzfPeekBlockSize(block.substr(0, n)).status();
    ASSERT_TRUE(st.IsCorruption()) << "prefix length " << n;
    EXPECT_NE(st.message().find("truncated"), std::string::npos)
        << st.message();
  }
  EXPECT_TRUE(BgzfPeekBlockSize(block).ok());
}

TEST(BgzfTest, ZlibErrorSurfacesAsStatusWithOffsetContext) {
  // A deflate-method block whose payload is garbage: inflate must fail
  // with a Status naming the block offset, never abort.
  Rng rng(13);
  std::string junk = RandomBytes(rng, 64);
  std::string block;
  block += "GBZ1";
  BufferWriter w(&block);
  w.PutU32(static_cast<uint32_t>(junk.size()));
  w.PutU32(100);
  block += junk;

  Status st = BgzfDecompressBlock(block, nullptr).status();
  ASSERT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("zlib uncompress failed"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("offset 0"), std::string::npos) << st.message();

  // The same junk block sitting after a healthy one reports its own
  // offset, not 0.
  auto good = BgzfCompressBlock(std::string(1000, 'g')).ValueOrDie();
  std::string stream = good + block;
  std::string out;
  Status range = BgzfReadRange(stream, 1000, 50, &out);
  ASSERT_TRUE(range.IsCorruption());
  EXPECT_NE(range.message().find("offset " + std::to_string(good.size())),
            std::string::npos)
      << range.message();
}

TEST(BgzfTest, ReadRangeMatchesSlicesAtRandomOffsets) {
  Rng rng(14);
  // Genome-like compressible payload spanning several blocks.
  std::string payload;
  payload.reserve(3 * kBgzfBlockSize);
  const char bases[] = "ACGT";
  for (size_t i = 0; i < 3 * kBgzfBlockSize + 123; ++i) {
    payload.push_back(bases[rng.Uniform(4)]);
  }
  std::string compressed;
  BgzfWriter w(&compressed);
  ASSERT_TRUE(w.Append(payload).ok());
  ASSERT_TRUE(w.Flush().ok());

  for (int i = 0; i < 200; ++i) {
    size_t off = rng.Uniform(static_cast<uint32_t>(payload.size()));
    size_t len =
        rng.Uniform(static_cast<uint32_t>(payload.size() - off) + 1);
    std::string out;
    ASSERT_TRUE(BgzfReadRange(compressed, off, len, &out).ok());
    ASSERT_EQ(out, payload.substr(off, len)) << "off=" << off
                                             << " len=" << len;
  }
  std::string out;
  EXPECT_TRUE(
      BgzfReadRange(compressed, payload.size() - 1, 2, &out).IsOutOfRange());
}

TEST(BgzfTest, RandomizedTornAndCorruptBlocksFailCleanly) {
  // Satellite robustness sweep: flip a byte in a header or payload, or
  // truncate mid-block. Every mutation must produce a clean Status (or,
  // for payload flips of *stored* blocks, possibly wrong bytes — the
  // CRC layer above owns that case); nothing may crash.
  Rng rng(20170517);
  const char bases[] = "ACGT";
  for (int trial = 0; trial < 300; ++trial) {
    std::string payload;
    size_t n = 1 + rng.Uniform(2 * kBgzfBlockSize);
    payload.reserve(n);
    for (size_t i = 0; i < n; ++i) payload.push_back(bases[rng.Uniform(4)]);
    std::string compressed;
    BgzfWriter w(&compressed);
    ASSERT_TRUE(w.Append(payload).ok());
    ASSERT_TRUE(w.Flush().ok());

    std::string mutated = compressed;
    const int kind = static_cast<int>(rng.Uniform(3));
    if (kind == 0) {
      // Header flip (first block's header or a later one's).
      size_t pos = rng.Uniform(kBgzfHeaderSize);
      mutated[pos] ^= static_cast<char>(1 << rng.Uniform(8));
    } else if (kind == 1 && mutated.size() > kBgzfHeaderSize) {
      // Payload flip.
      size_t pos = kBgzfHeaderSize +
                   rng.Uniform(static_cast<uint32_t>(mutated.size() -
                                                     kBgzfHeaderSize));
      mutated[pos] ^= static_cast<char>(1 << rng.Uniform(8));
    } else {
      // Torn write: truncate mid-block.
      mutated.resize(rng.Uniform(static_cast<uint32_t>(mutated.size())));
    }
    if (mutated == compressed) continue;

    std::string out;
    Status st = BgzfReadRange(mutated, 0, payload.size(), &out);
    EXPECT_TRUE(!st.ok() || out != payload)
        << "trial " << trial << " kind " << kind
        << ": mutation survived decode byte-identically";
    // The block walk itself must also fail cleanly or terminate.
    (void)BgzfListBlocks(mutated);
  }
}

std::string Bases(Rng& rng, size_t n) {
  std::string s(n, '\0');
  for (auto& c : s) c = "ACGT"[rng.Uniform(4)];
  return s;
}

// BgzfCompressChunks' reference: the serial writer flushed after every
// chunk, which is exactly where the primitive cuts its blocks.
std::string WriterOutput(const std::vector<std::string_view>& chunks,
                         int level, BgzfCodecStats* stats) {
  std::string out;
  BgzfWriter w(&out, level);
  for (std::string_view c : chunks) {
    EXPECT_TRUE(w.Append(c).ok());
    EXPECT_TRUE(w.Flush().ok());
  }
  *stats = w.stats();
  return out;
}

TEST(BgzfTest, CompressChunksMatchesSerialWriter) {
  Rng rng(21);
  Executor one_worker(1);
  Executor three_workers(3);
  for (size_t n : {0, 1, 3, 40}) {
    std::vector<std::string> owned;
    for (size_t i = 0; i < n; ++i) {
      if (i == 1) {
        owned.push_back(RandomBytes(rng, 5000));  // stored fallback
      } else if (i % 7 == 0) {
        owned.push_back(Bases(rng, kBgzfBlockSize));  // a full block
      } else {
        owned.push_back(Bases(rng, 1 + rng.Uniform(kBgzfBlockSize)));
      }
    }
    const std::vector<std::string_view> chunks(owned.begin(), owned.end());
    for (int level : {1, -1}) {
      BgzfCodecStats want_stats;
      const std::string want = WriterOutput(chunks, level, &want_stats);
      if (n > 1) EXPECT_GE(want_stats.stored_blocks, 1);
      for (Executor* executor : {static_cast<Executor*>(nullptr),
                                 &one_worker, &three_workers}) {
        const std::string where =
            "n=" + std::to_string(n) + " level=" + std::to_string(level) +
            " workers=" +
            std::to_string(executor == nullptr ? 0 : executor->num_threads());
        std::string got = "prefix";
        BgzfCodecStats stats;
        ASSERT_TRUE(
            BgzfCompressChunks(chunks, level, executor, &got, &stats).ok())
            << where;
        EXPECT_TRUE(got == "prefix" + want) << where;
        EXPECT_EQ(stats.blocks, want_stats.blocks) << where;
        EXPECT_EQ(stats.stored_blocks, want_stats.stored_blocks) << where;
        EXPECT_EQ(stats.raw_bytes, want_stats.raw_bytes) << where;
        EXPECT_EQ(stats.stored_bytes, want_stats.stored_bytes) << where;
      }
    }
  }
}

TEST(BgzfTest, CompressChunksRejectsOversizedChunkAndBadLevel) {
  Executor executor(2);
  const std::string small(10, 'a');
  const std::string big(kBgzfBlockSize + 1, 'a');
  std::string out;
  EXPECT_TRUE(BgzfCompressChunks({small, big}, -1, &executor, &out)
                  .IsInvalidArgument());
  EXPECT_TRUE(BgzfCompressChunks({small}, 10, nullptr, &out)
                  .IsInvalidArgument());
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace gesall
