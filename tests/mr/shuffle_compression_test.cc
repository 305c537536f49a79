// Compressed shuffle spills (JobConfig::compress_shuffle): BGZF-framed
// spill runs, lazy-decompress merge cursors, per-chunk CRC32C over the
// compressed frames, and the differential contract — the merged reduce
// input (and thus every job output) is byte-identical with compression
// on or off.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mr/mapreduce.h"
#include "mr/shuffle_buffer.h"
#include "util/io.h"
#include "util/rng.h"

namespace gesall {
namespace {

// Genome-like highly-compressible values: runs of bases + a qual tail.
std::string BaseValue(Rng& rng, size_t len) {
  static const char bases[] = "ACGT";
  std::string v;
  v.reserve(len);
  for (size_t i = 0; i < len; ++i) v.push_back(bases[rng.Uniform(4)]);
  return v;
}

// Drains a merger into "key=value\n" lines — the byte-identity probe.
std::string DrainMerger(ShuffleRunMerger& merger) {
  std::string out;
  for (const ShuffleEntry* e = merger.Next(); e != nullptr;
       e = merger.Next()) {
    out.append(e->key);
    out.push_back('=');
    out.append(e->value);
    out.push_back('\n');
  }
  return out;
}

std::string DrainCompressed(const ShuffleBuffer& buffer, int p) {
  std::vector<std::unique_ptr<CompressedShuffleRunReader>> owned;
  std::vector<ShuffleRunReader*> readers;
  for (const auto& crun : buffer.compressed_runs(p)) {
    owned.push_back(std::make_unique<CompressedShuffleRunReader>(crun.bytes));
    readers.push_back(owned.back().get());
  }
  ShuffleRunMerger merger(readers);
  std::string out = DrainMerger(merger);
  for (const auto& r : owned) {
    EXPECT_TRUE(r->status().ok()) << r->status().ToString();
  }
  return out;
}

std::string DrainUncompressed(const ShuffleBuffer& buffer, int p) {
  std::vector<const ShuffleRun*> runs;
  for (const auto& run : buffer.runs(p)) runs.push_back(&run);
  ShuffleRunMerger merger(runs);
  return DrainMerger(merger);
}

TEST(ShuffleCompressionTest, CompressedSpillRoundTrip) {
  Rng rng(1);
  ShuffleBuffer buffer(/*num_partitions=*/1, /*sort_buffer_bytes=*/1 << 20,
                       /*checksum=*/true, /*compress=*/true);
  std::map<std::string, std::string> expected;
  for (int i = 0; i < 500; ++i) {
    std::string key = "read-" + std::to_string(rng.Uniform(10000));
    std::string value = BaseValue(rng, 100);
    if (expected.emplace(key, value).second) {
      ASSERT_TRUE(buffer.Add(0, key, value).ok());
    }
  }
  ASSERT_TRUE(buffer.Finish().ok());
  ASSERT_TRUE(buffer.compressed());
  EXPECT_TRUE(buffer.runs(0).empty());  // arena released, crun owns bytes
  ASSERT_EQ(buffer.compressed_runs(0).size(), 1u);

  std::string want;
  for (const auto& [k, v] : expected) want += k + "=" + v + "\n";
  EXPECT_EQ(DrainCompressed(buffer, 0), want);

  const ShuffleStats& s = buffer.stats();
  EXPECT_GT(s.spill_bytes_raw, 0);
  EXPECT_GT(s.spill_bytes_compressed, 0);
  EXPECT_LT(s.spill_bytes_compressed, s.spill_bytes_raw);
  EXPECT_GT(s.checksummed_bytes, 0);
  EXPECT_TRUE(buffer.VerifyPartition(0).ok());
}

TEST(ShuffleCompressionTest, DifferentialMergeByteIdentical) {
  // Multi-spill, multi-partition, duplicate keys: the compressed path
  // must reproduce the uncompressed merge byte for byte.
  for (int64_t sort_buffer : {int64_t{1} << 20, int64_t{512}}) {
    Rng rng(42);
    ShuffleBuffer plain(/*num_partitions=*/3, sort_buffer,
                        /*checksum=*/true, /*compress=*/false);
    ShuffleBuffer packed(/*num_partitions=*/3, sort_buffer,
                         /*checksum=*/true, /*compress=*/true);
    for (int i = 0; i < 2000; ++i) {
      std::string key = "k" + std::to_string(rng.Uniform(200));
      std::string value = BaseValue(rng, 1 + rng.Uniform(60));
      int p = static_cast<int>(rng.Uniform(3));
      ASSERT_TRUE(plain.Add(p, key, value).ok());
      ASSERT_TRUE(packed.Add(p, key, value).ok());
    }
    ASSERT_TRUE(plain.Finish().ok());
    ASSERT_TRUE(packed.Finish().ok());
    for (int p = 0; p < 3; ++p) {
      EXPECT_EQ(DrainCompressed(packed, p), DrainUncompressed(plain, p))
          << "partition " << p << " sort_buffer " << sort_buffer;
      EXPECT_TRUE(packed.VerifyPartition(p).ok());
    }
    // The small sort buffer forces spills, and each partition keeps one
    // compressed run per spill, as many as the plain buffer keeps.
    if (sort_buffer == 512) {
      EXPECT_GT(packed.stats().spills, 1);
      for (int p = 0; p < 3; ++p) {
        EXPECT_GT(packed.compressed_runs(p).size(), 1u) << "partition " << p;
        EXPECT_EQ(packed.compressed_runs(p).size(), plain.runs(p).size());
      }
    }
  }
}

TEST(ShuffleCompressionTest, ValueLargerThanBlockStraddles) {
  // A single value spanning multiple 64 KiB BGZF blocks exercises the
  // cursor's carry-stitch path.
  Rng rng(9);
  ShuffleBuffer buffer(/*num_partitions=*/1, /*sort_buffer_bytes=*/1 << 22,
                       /*checksum=*/true, /*compress=*/true);
  std::string big = BaseValue(rng, 3 * kBgzfBlockSize + 4321);
  ASSERT_TRUE(buffer.Add(0, "big", big).ok());
  ASSERT_TRUE(buffer.Add(0, "a", "small").ok());
  ASSERT_TRUE(buffer.Finish().ok());
  EXPECT_EQ(DrainCompressed(buffer, 0), "a=small\nbig=" + big + "\n");
}

TEST(ShuffleCompressionTest, VerifyPartitionDetectsFlippedByte) {
  Rng rng(3);
  ShuffleBuffer buffer(/*num_partitions=*/1, /*sort_buffer_bytes=*/1 << 20,
                       /*checksum=*/true, /*compress=*/true);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        buffer.Add(0, "k" + std::to_string(i), BaseValue(rng, 64)).ok());
  }
  ASSERT_TRUE(buffer.Finish().ok());
  ASSERT_TRUE(buffer.VerifyPartition(0).ok());
  // Rot one stored (compressed) byte, as a faulty fetch would.
  auto& crun =
      const_cast<CompressedShuffleRun&>(buffer.compressed_runs(0)[0]);
  crun.bytes[crun.bytes.size() / 2] ^= 0x20;
  EXPECT_TRUE(buffer.VerifyPartition(0).IsCorruption());
}

TEST(ShuffleCompressionTest, ReaderSurfacesTruncationAsStatus) {
  Rng rng(4);
  ShuffleBuffer buffer(/*num_partitions=*/1, /*sort_buffer_bytes=*/1 << 20,
                       /*checksum=*/true, /*compress=*/true);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        buffer.Add(0, "key-" + std::to_string(i), BaseValue(rng, 50)).ok());
  }
  ASSERT_TRUE(buffer.Finish().ok());
  const std::string& bytes = buffer.compressed_runs(0)[0].bytes;
  std::string truncated = bytes.substr(0, bytes.size() - 5);
  CompressedShuffleRunReader reader(truncated);
  while (reader.Advance() != nullptr) {
  }
  EXPECT_TRUE(reader.status().IsCorruption()) << reader.status().ToString();
}

// A CRC-valid run whose one record header claims a key of almost 4 GiB
// over a few real bytes: the reader reports the run truncated where the
// bytes ran out, having allocated no more than the run holds.
TEST(ShuffleCompressionTest, LyingRecordLengthFailsAsCorruption) {
  std::string header;
  BufferWriter framing(&header);
  framing.PutU32(0xFFFFFFF0u);  // klen
  framing.PutU32(4);            // vlen
  std::string run;
  BgzfWriter w(&run);
  ASSERT_TRUE(w.Append(header).ok());
  ASSERT_TRUE(w.Append("a few real bytes").ok());
  ASSERT_TRUE(w.Flush().ok());
  CompressedShuffleRunReader reader(run);
  EXPECT_EQ(reader.Advance(), nullptr);
  EXPECT_TRUE(reader.status().IsCorruption()) << reader.status().ToString();
  EXPECT_NE(reader.status().message().find(
                "at stream offset " + std::to_string(run.size())),
            std::string::npos)
      << reader.status().ToString();
}

// ----- engine-level differential -----

class WordCountMapper : public Mapper {
 public:
  Status Map(const std::string& input, MapContext* ctx) override {
    std::istringstream in(input);
    std::string word;
    while (in >> word) ctx->Emit(word, "1");
    return Status::OK();
  }
};

class SumReducer : public Reducer {
 public:
  Status Reduce(const std::string& key,
                const std::vector<std::string>& values,
                ReduceContext* ctx) override {
    ctx->Emit(key + ":" + std::to_string(values.size()));
    return Status::OK();
  }
};

TEST(ShuffleCompressionTest, JobOutputsIdenticalWithCompressionOn) {
  Rng rng(20170517);
  std::vector<InputSplit> splits;
  for (int s = 0; s < 8; ++s) {
    std::string text;
    for (int w = 0; w < 400; ++w) {
      text += "w" + std::to_string(rng.Uniform(80)) + " ";
    }
    splits.push_back(InlineSplit(text));
  }
  auto run = [&](bool compress, int64_t sort_buffer) {
    JobConfig cfg;
    cfg.num_reducers = 3;
    cfg.max_parallel_tasks = 4;
    cfg.sort_buffer_bytes = sort_buffer;
    cfg.compress_shuffle = compress;
    MapReduceJob job(cfg);
    return job
        .Run(splits, [] { return std::make_unique<WordCountMapper>(); },
             [] { return std::make_unique<SumReducer>(); })
        .ValueOrDie();
  };
  for (int64_t sort_buffer : {int64_t{1} << 20, int64_t{2048}}) {
    JobResult off = run(false, sort_buffer);
    JobResult on = run(true, sort_buffer);
    EXPECT_EQ(on.reducer_outputs, off.reducer_outputs)
        << "sort_buffer " << sort_buffer;
    EXPECT_EQ(on.counters.Get("reduce_shuffle_records"),
              off.counters.Get("reduce_shuffle_records"));
    // A reduce's shuffle input is its records' keys and values, with or
    // without the codec: the spill framing is not shuffle input.
    EXPECT_EQ(on.counters.Get("reduce_shuffle_bytes"),
              off.counters.Get("reduce_shuffle_bytes"));
    ASSERT_EQ(on.tasks.size(), off.tasks.size());
    for (size_t i = 0; i < on.tasks.size(); ++i) {
      EXPECT_EQ(on.tasks[i].input_bytes, off.tasks[i].input_bytes) << i;
    }
    // Compression counters flow only on the compressed run.
    EXPECT_GT(on.counters.Get("shuffle_spill_bytes_raw"), 0);
    EXPECT_GT(on.counters.Get("shuffle_spill_bytes_compressed"), 0);
    EXPECT_LT(on.counters.Get("shuffle_spill_bytes_compressed"),
              on.counters.Get("shuffle_spill_bytes_raw"));
    EXPECT_GT(on.counters.Get("reduce_shuffle_bytes_compressed"), 0);
    EXPECT_EQ(off.counters.Get("shuffle_spill_bytes_raw"), 0);
    EXPECT_EQ(off.counters.Get("reduce_shuffle_bytes_compressed"), 0);
  }
}

TEST(ShuffleCompressionTest, InvalidLevelRejectedByJobValidation) {
  JobConfig cfg;
  cfg.compress_shuffle = true;
  cfg.shuffle_compress_level = 17;
  MapReduceJob job(cfg);
  auto result =
      job.Run({InlineSplit("a b")},
              [] { return std::make_unique<WordCountMapper>(); },
              [] { return std::make_unique<SumReducer>(); });
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

}  // namespace
}  // namespace gesall
