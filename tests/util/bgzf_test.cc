#include "util/bgzf.h"

#include <gtest/gtest.h>
#include <zlib.h>

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

std::string Bases(Rng& rng, size_t n) {
  std::string s(n, '\0');
  for (auto& c : s) c = "ACGT"[rng.Uniform(4)];
  return s;
}

// A BAM-shaped chunk of at most `limit` bytes: records of fixed-width
// fields, a name, a sequence and a quality string, with each quality
// string listed in `*spans` (some records carry none).
std::string BamShapedChunk(Rng& rng, size_t limit,
                           std::vector<BgzfSpan>* spans) {
  std::string chunk;
  while (true) {
    const size_t n = rng.Uniform(4) == 0 ? 0 : 50 + rng.Uniform(100);
    std::string record;
    BufferWriter w(&record);
    w.PutString("read" + std::to_string(rng.Uniform(1 << 20)));
    w.PutU16(static_cast<uint16_t>(rng.Uniform(4096)));
    w.PutI64(static_cast<int64_t>(rng.Uniform(1 << 20)));
    w.PutString(Bases(rng, n));
    w.PutU32(static_cast<uint32_t>(n));
    const size_t qual = record.size();
    for (size_t i = 0; i < n; ++i) {
      record.push_back(static_cast<char>(33 + rng.Uniform(40)));
    }
    w.PutString("RG:Z:sample");
    if (chunk.size() + record.size() > limit) return chunk;
    spans->push_back({static_cast<uint32_t>(chunk.size() + qual),
                      static_cast<uint32_t>(n)});
    chunk += record;
  }
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

  std::string out;
  ASSERT_TRUE(BgzfReadRange(compressed, 0, payload.size(), &out).ok());
  EXPECT_EQ(out, payload);
  // The stream ends exactly where the payload does.
  EXPECT_TRUE(BgzfReadRange(compressed, payload.size(), 1, &out)
                  .IsOutOfRange());
}

TEST(BgzfTest, ReadAcrossBlockBoundary) {
  std::string compressed;
  BgzfWriter w(&compressed);
  std::string a(kBgzfBlockSize - 10, 'a');
  ASSERT_TRUE(w.Append(a).ok());
  ASSERT_TRUE(w.Append(std::string(20, 'b')).ok());
  ASSERT_TRUE(w.Flush().ok());
  ASSERT_EQ(BgzfListBlocks(compressed).ValueOrDie().size(), 2u);

  std::string out;
  ASSERT_TRUE(
      BgzfReadRange(compressed, kBgzfBlockSize - 10 - 5, 15, &out).ok());
  EXPECT_EQ(out, "aaaaabbbbbbbbbb");
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

  // The same sweep over BAM-shaped chunks with quality-string spans,
  // coded as split blocks, plus lies in a split payload's size table.
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::string> owned;
    std::vector<std::vector<BgzfSpan>> spans;
    std::string payload;
    for (size_t c = 0, n = 1 + rng.Uniform(3); c < n; ++c) {
      spans.emplace_back();
      owned.push_back(
          BamShapedChunk(rng, 1 + rng.Uniform(kBgzfBlockSize), &spans.back()));
      payload += owned.back();
    }
    const std::vector<std::string_view> chunks(owned.begin(), owned.end());
    std::string compressed;
    ASSERT_TRUE(BgzfCompressChunks(chunks, kBgzfDefaultLevel, nullptr,
                                   &compressed, nullptr, &spans)
                    .ok());
    const auto blocks = BgzfListBlocks(compressed).ValueOrDie();
    const auto [at, size] = blocks[rng.Uniform(blocks.size())];

    std::string mutated = compressed;
    const int kind = static_cast<int>(rng.Uniform(4));
    if (kind == 0) {
      mutated[at + rng.Uniform(kBgzfHeaderSize)] ^=
          static_cast<char>(1 << rng.Uniform(8));
    } else if (kind == 1) {
      const size_t pos = at + kBgzfHeaderSize +
                         rng.Uniform(size - kBgzfHeaderSize);
      mutated[pos] ^= static_cast<char>(1 << rng.Uniform(8));
    } else if (kind == 2) {
      mutated.resize(rng.Uniform(static_cast<uint32_t>(mutated.size())));
    } else if (BgzfPeekBlock(std::string_view(compressed).substr(at))
                   .ValueOrDie()
                   .split) {
      // Lie in main_raw, side_raw or main_csize: a near miss or junk.
      const size_t field = at + kBgzfHeaderSize + 4 * rng.Uniform(3);
      uint32_t value = 0;
      std::memcpy(&value, mutated.data() + field, 4);
      value = rng.Uniform(2) == 0 ? value + rng.Uniform(9) - 4
                                  : static_cast<uint32_t>(rng.Next());
      std::memcpy(mutated.data() + field, &value, 4);
    }
    if (mutated == compressed) continue;

    std::string out;
    Status st = BgzfReadRange(mutated, 0, payload.size(), &out);
    EXPECT_TRUE(!st.ok() || out != payload)
        << "split trial " << trial << " kind " << kind
        << ": mutation survived decode byte-identically";
    (void)BgzfListBlocks(mutated);
  }
}

TEST(BgzfTest, SplitBlockRoundTripsBamShapedChunks) {
  Rng rng(22);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<BgzfSpan> spans;
    const std::string chunk =
        BamShapedChunk(rng, 1 + rng.Uniform(kBgzfBlockSize), &spans);
    for (int level : {-1, 1, 9}) {
      const std::string block =
          BgzfCompressSplitBlock(chunk, spans, level).ValueOrDie();
      const BgzfBlockInfo info = BgzfPeekBlock(block).ValueOrDie();
      EXPECT_TRUE(info.split || info.stored) << trial;
      EXPECT_EQ(info.raw_size, chunk.size());
      EXPECT_EQ(BgzfDecompressBlock(block, nullptr).ValueOrDie(), chunk)
          << "trial " << trial << " level " << level;
    }
  }
  // A whole chunk of qualities codes as split, and smaller than plain.
  std::vector<BgzfSpan> spans;
  const std::string chunk = BamShapedChunk(rng, kBgzfBlockSize, &spans);
  const std::string split = BgzfCompressSplitBlock(chunk, spans).ValueOrDie();
  EXPECT_TRUE(BgzfPeekBlock(split).ValueOrDie().split);
  EXPECT_TRUE(BgzfHasBlockMagic(split));
  EXPECT_LT(split.size(), BgzfCompressBlock(chunk).ValueOrDie().size());
  // Without a non-empty span, or at level 0, it is the plain codec.
  EXPECT_EQ(BgzfCompressSplitBlock(chunk, {}).ValueOrDie(),
            BgzfCompressBlock(chunk).ValueOrDie());
  EXPECT_EQ(BgzfCompressSplitBlock(chunk, {{10, 0}, {20, 0}}).ValueOrDie(),
            BgzfCompressBlock(chunk).ValueOrDie());
  EXPECT_EQ(BgzfCompressSplitBlock(chunk, spans, 0).ValueOrDie(),
            BgzfCompressBlock(chunk, 0).ValueOrDie());
  // Incompressible spans and gaps fall back to a stored block.
  const std::string noise = RandomBytes(rng, 4096);
  const std::string stored =
      BgzfCompressSplitBlock(noise, {{100, 1000}, {2000, 5}}).ValueOrDie();
  EXPECT_TRUE(BgzfPeekBlock(stored).ValueOrDie().stored);
  EXPECT_EQ(BgzfDecompressBlock(stored, nullptr).ValueOrDie(), noise);
}

TEST(BgzfTest, SplitBlockRejectsBadSpans) {
  const std::string chunk(1000, 'q');
  for (const std::vector<BgzfSpan>& spans :
       std::vector<std::vector<BgzfSpan>>{{{10, 20}, {5, 2}},      // unsorted
                                          {{10, 20}, {29, 2}},     // overlap
                                          {{990, 11}},             // past end
                                          {{1001, 0}},             // past end
                                          {{0, UINT32_MAX}}}) {    // overflow
    EXPECT_TRUE(
        BgzfCompressSplitBlock(chunk, spans).status().IsInvalidArgument());
  }
  std::string out;
  const std::vector<std::vector<BgzfSpan>> one_list = {{}};
  EXPECT_TRUE(BgzfCompressChunks({chunk, chunk}, -1, nullptr, &out, nullptr,
                                 &one_list)
                  .IsInvalidArgument());
}

// Parts of a split payload, assembled by hand so that a test can make
// them disagree.
struct SplitParts {
  uint32_t usize = 0;
  uint32_t main_raw = 0;
  uint32_t side_raw = 0;
  std::string main;  // zlib stream
  std::string side;  // zlib stream
  uint32_t main_csize = 0;
};

std::string Deflate(std::string_view raw) {
  uLongf n = compressBound(static_cast<uLong>(raw.size()));
  std::string out(n, '\0');
  EXPECT_EQ(compress2(reinterpret_cast<Bytef*>(out.data()), &n,
                      reinterpret_cast<const Bytef*>(raw.data()),
                      static_cast<uLong>(raw.size()), 6),
            Z_OK);
  out.resize(n);
  return out;
}

std::string Varints(std::initializer_list<uint32_t> values) {
  std::string out;
  for (uint32_t v : values) {
    for (; v >= 0x80; v >>= 7) out.push_back(static_cast<char>(v | 0x80));
    out.push_back(static_cast<char>(v));
  }
  return out;
}

std::string FrameSplit(const SplitParts& p) {
  std::string block = "GBZ2";
  BufferWriter w(&block);
  w.PutU32(static_cast<uint32_t>(12 + p.main.size() + p.side.size()));
  w.PutU32(p.usize);
  w.PutU32(p.main_raw);
  w.PutU32(p.side_raw);
  w.PutU32(p.main_csize);
  block += p.main;
  block += p.side;
  return block;
}

// A well-formed hand-made split block: two 500-byte quality spans in a
// 3096-byte chunk.
struct SplitFixture {
  std::string chunk;
  std::string outside;  // bytes outside the spans, in order
  std::string side;     // bytes inside the spans, in order

  SplitFixture() {
    Rng rng(23);
    const std::string a(1000, 'A'), c(1000, 'C'), tail(96, 'G');
    std::string q1, q2;
    for (int i = 0; i < 500; ++i) {
      q1.push_back(static_cast<char>(33 + rng.Uniform(40)));
      q2.push_back(static_cast<char>(33 + rng.Uniform(40)));
    }
    chunk = a + q1 + c + q2 + tail;
    outside = a + c + tail;
    side = q1 + q2;
  }

  SplitParts Parts(const std::string& table) const {
    SplitParts p;
    p.usize = static_cast<uint32_t>(chunk.size());
    p.main_raw = static_cast<uint32_t>(table.size() + outside.size());
    p.side_raw = static_cast<uint32_t>(side.size());
    p.main = Deflate(table + outside);
    p.side = Deflate(side);
    p.main_csize = static_cast<uint32_t>(p.main.size());
    return p;
  }

  SplitParts Valid() const {
    return Parts(Varints({2, 1000, 500, 1000, 500}));
  }
};

TEST(BgzfTest, HostileSplitPayloadsFailWithBlockOffset) {
  const SplitFixture f;
  const std::string good = BgzfCompressBlock(std::string(300, 'g')).ValueOrDie();
  // Decodes `block` on its own and as the second block of a stream; both
  // must fail with Corruption naming the block's own offset.
  auto expect_corrupt = [&](const std::string& block, const char* what) {
    std::string out;
    Status st = BgzfDecompressBlockInto(block, 4242, &out, nullptr);
    ASSERT_TRUE(st.IsCorruption()) << what << ": " << st.ToString();
    EXPECT_NE(st.message().find("offset 4242"), std::string::npos)
        << what << ": " << st.message();
    Status range = BgzfReadRange(good + block, 0, 300 + f.chunk.size(), &out);
    ASSERT_TRUE(range.IsCorruption()) << what << ": " << range.ToString();
    EXPECT_NE(range.message().find("offset " + std::to_string(good.size())),
              std::string::npos)
        << what << ": " << range.message();
  };

  std::string out;
  ASSERT_TRUE(BgzfDecompressBlockInto(FrameSplit(f.Valid()), 0, &out, nullptr)
                  .ok());
  ASSERT_EQ(out, f.chunk);

  SplitParts p = f.Valid();
  p.main_csize = static_cast<uint32_t>(p.main.size() + p.side.size() + 1);
  expect_corrupt(FrameSplit(p), "main stream larger than the payload");
  p.main_csize = UINT32_MAX;
  expect_corrupt(FrameSplit(p), "main stream size of 2^32 - 1");
  p.main_csize = 0;
  expect_corrupt(FrameSplit(p), "empty main stream");
  p.main_csize = static_cast<uint32_t>(p.main.size() - 1);
  expect_corrupt(FrameSplit(p), "main stream one byte short");

  expect_corrupt(FrameSplit(f.Parts(Varints({2, 1000, 500, 1000, 1500}))),
                 "span past the block end");
  expect_corrupt(FrameSplit(f.Parts(Varints({2, 1000, 500, 3000, 1}))),
                 "gap past the block end");
  expect_corrupt(FrameSplit(f.Parts(Varints({2, 1000, 500, 1000, 400}))),
                 "spans cover less than side_raw");
  expect_corrupt(FrameSplit(f.Parts(Varints({2, 1000, 500, 1000, 501}))),
                 "spans cover more than side_raw");
  expect_corrupt(FrameSplit(f.Parts(Varints({3, 1000, 500, 1000, 500}))),
                 "span count past the table");
  expect_corrupt(FrameSplit(f.Parts(Varints({2, 1000, 500, 1000, 0}))),
                 "empty span");
  expect_corrupt(FrameSplit(f.Parts(std::string("\xff\xff\xff\xff\xff\x01"))),
                 "span count wider than a u32");

  p = f.Valid();
  ++p.usize;
  expect_corrupt(FrameSplit(p), "usize one more than main + side");
  p = f.Valid();
  p.side_raw = p.usize + 1;
  expect_corrupt(FrameSplit(p), "side_raw past usize");
  p = f.Valid();
  p.main_raw = UINT32_MAX;
  expect_corrupt(FrameSplit(p), "main_raw of 2^32 - 1");
  p = f.Valid();
  p.main_raw -= 1;
  expect_corrupt(FrameSplit(p), "main_raw one short");

  p = f.Valid();
  p.side = Deflate(f.side.substr(0, f.side.size() - 10));
  expect_corrupt(FrameSplit(p), "side stream inflates short");
  p.side = Deflate(f.side + "0123456789");
  expect_corrupt(FrameSplit(p), "side stream inflates long");
  p = f.Valid();
  p.side += "xx";
  expect_corrupt(FrameSplit(p), "bytes after the side stream");
  p = f.Valid();
  p.main = Deflate(std::string(p.main_raw + 3, 'm'));
  p.main_csize = static_cast<uint32_t>(p.main.size());
  expect_corrupt(FrameSplit(p), "main stream inflates long");

  // A payload too short for its own size table.
  std::string tiny = "GBZ2";
  BufferWriter w(&tiny);
  w.PutU32(8);
  w.PutU32(100);
  w.PutU32(100);
  w.PutU32(0);
  expect_corrupt(tiny, "payload shorter than the size table");
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
