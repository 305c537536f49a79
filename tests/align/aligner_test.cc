#include "align/aligner.h"

#include <gtest/gtest.h>

#include <memory>

#include "genome/read_simulator.h"
#include "genome/reference_generator.h"
#include "util/rng.h"

namespace gesall {
namespace {

// Shared fixture: small genome + index is expensive to build, do it once.
class AlignerTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    ReferenceGeneratorOptions ro;
    ro.num_chromosomes = 2;
    ro.chromosome_length = 80'000;
    ref_ = new ReferenceGenome(GenerateReference(ro));
    index_ = new GenomeIndex(*ref_);
  }
  static void TearDownTestSuite() {
    delete index_;
    delete ref_;
    index_ = nullptr;
    ref_ = nullptr;
  }

  static ReferenceGenome* ref_;
  static GenomeIndex* index_;
};

ReferenceGenome* AlignerTest::ref_ = nullptr;
GenomeIndex* AlignerTest::index_ = nullptr;

TEST_F(AlignerTest, GenomeIndexCoordinateMapping) {
  int32_t chrom;
  int64_t pos;
  ASSERT_TRUE(index_->ToChromPos(0, &chrom, &pos));
  EXPECT_EQ(chrom, 0);
  EXPECT_EQ(pos, 0);
  ASSERT_TRUE(index_->ToChromPos(80'000, &chrom, &pos));
  EXPECT_EQ(chrom, 1);
  EXPECT_EQ(pos, 0);
  ASSERT_TRUE(index_->ToChromPos(159'999, &chrom, &pos));
  EXPECT_EQ(chrom, 1);
  EXPECT_EQ(pos, 79'999);
  EXPECT_FALSE(index_->ToChromPos(160'000, &chrom, &pos));
  EXPECT_EQ(index_->ToTextPos(1, 5), 80'005);
}

TEST_F(AlignerTest, ExactReadAlignsToOrigin) {
  ReadAligner aligner(*index_);
  const std::string& seq = ref_->chromosomes[1].sequence;
  std::string read = seq.substr(12'345, 100);
  auto alignments = aligner.AlignRead(read);
  ASSERT_FALSE(alignments.empty());
  EXPECT_EQ(alignments[0].ref_id, 1);
  EXPECT_EQ(alignments[0].pos, 12'345);
  EXPECT_FALSE(alignments[0].reverse);
  EXPECT_EQ(CigarToString(alignments[0].cigar), "100M");
  EXPECT_EQ(alignments[0].score, 100);
}

TEST_F(AlignerTest, ReverseComplementReadDetected) {
  ReadAligner aligner(*index_);
  const std::string& seq = ref_->chromosomes[0].sequence;
  std::string read = ReverseComplement(seq.substr(30'000, 100));
  auto alignments = aligner.AlignRead(read);
  ASSERT_FALSE(alignments.empty());
  EXPECT_EQ(alignments[0].ref_id, 0);
  EXPECT_EQ(alignments[0].pos, 30'000);
  EXPECT_TRUE(alignments[0].reverse);
}

TEST_F(AlignerTest, ReadWithMismatchesStillAligns) {
  ReadAligner aligner(*index_);
  std::string read = ref_->chromosomes[0].sequence.substr(44'000, 100);
  read[10] = read[10] == 'A' ? 'C' : 'A';
  read[60] = read[60] == 'G' ? 'T' : 'G';
  auto alignments = aligner.AlignRead(read);
  ASSERT_FALSE(alignments.empty());
  EXPECT_EQ(alignments[0].pos, 44'000);
  EXPECT_EQ(alignments[0].edit_distance, 2);
}

TEST_F(AlignerTest, JunkReadUnaligned) {
  ReadAligner aligner(*index_);
  // A read of alternating junk unlikely to seed anywhere.
  std::string junk;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) junk += "ACGT"[rng.Uniform(4)];
  // Junk may occasionally align weakly; what matters is that a real read
  // scores far higher. Require either no alignment or low score.
  auto alignments = aligner.AlignRead(junk);
  if (!alignments.empty()) {
    EXPECT_LT(alignments[0].score, 60);
  }
}

TEST_F(AlignerTest, ShortReadRejected) {
  ReadAligner aligner(*index_);
  EXPECT_TRUE(aligner.AlignRead("ACGT").empty());
}

TEST_F(AlignerTest, AlignmentsSortedByScore) {
  ReadAligner aligner(*index_);
  std::string read = ref_->chromosomes[0].sequence.substr(20'000, 100);
  auto alignments = aligner.AlignRead(read);
  for (size_t i = 1; i < alignments.size(); ++i) {
    EXPECT_GE(alignments[i - 1].score, alignments[i].score);
  }
}

TEST_F(AlignerTest, PairedEndProperPair) {
  PairedEndAligner aligner(*index_);
  const std::string& seq = ref_->chromosomes[0].sequence;
  // Fragment [50000, 50400): mate1 forward at 50000, mate2 reverse.
  std::string frag = seq.substr(50'000, 400);
  std::vector<FastqRecord> interleaved = {
      {"p0", frag.substr(0, 100), std::string(100, 'I')},
      {"p0", ReverseComplement(frag.substr(300, 100)),
       std::string(100, 'I')},
  };
  auto records = aligner.AlignPairs(interleaved);
  ASSERT_EQ(records.size(), 2u);
  const SamRecord& r1 = records[0];
  const SamRecord& r2 = records[1];
  EXPECT_EQ(r1.qname, "p0");
  EXPECT_TRUE(r1.IsPaired());
  EXPECT_TRUE(r1.IsFirstOfPair());
  EXPECT_FALSE(r2.IsFirstOfPair());
  EXPECT_EQ(r1.pos, 50'000);
  EXPECT_EQ(r2.pos, 50'300);
  EXPECT_FALSE(r1.IsReverse());
  EXPECT_TRUE(r2.IsReverse());
  EXPECT_EQ(r1.mate_pos, r2.pos);
  EXPECT_EQ(r2.mate_pos, r1.pos);
  EXPECT_EQ(r1.tlen, 400);
  EXPECT_EQ(r2.tlen, -400);
  EXPECT_GT(r1.mapq, 30);
}

TEST_F(AlignerTest, JunkMateMarkedUnmapped) {
  PairedEndAligner aligner(*index_);
  const std::string& seq = ref_->chromosomes[0].sequence;
  Rng rng(17);
  std::string junk;
  for (int i = 0; i < 100; ++i) junk += "ACGT"[rng.Uniform(4)];
  std::vector<FastqRecord> interleaved = {
      {"p0", seq.substr(10'000, 100), std::string(100, 'I')},
      {"p0", junk, std::string(100, 'I')},
  };
  auto records = aligner.AlignPairs(interleaved);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_FALSE(records[0].IsUnmapped());
  if (records[1].IsUnmapped()) {
    EXPECT_TRUE(records[0].IsMateUnmapped());
    // Unmapped mate placed at the mapped mate's locus.
    EXPECT_EQ(records[1].ref_id, records[0].ref_id);
    EXPECT_EQ(records[1].pos, records[0].pos);
    EXPECT_EQ(records[1].mapq, 0);
  }
}

TEST_F(AlignerTest, SamSeqIsReverseComplementedForReverseStrand) {
  PairedEndAligner aligner(*index_);
  const std::string& seq = ref_->chromosomes[0].sequence;
  std::string frag = seq.substr(60'000, 400);
  std::string mate2_read = ReverseComplement(frag.substr(300, 100));
  std::vector<FastqRecord> interleaved = {
      {"p0", frag.substr(0, 100), std::string(100, 'I')},
      {"p0", mate2_read, std::string(100, 'I')},
  };
  auto records = aligner.AlignPairs(interleaved);
  // Mate2 aligned reverse: stored SEQ must match the forward reference.
  EXPECT_EQ(records[1].seq, frag.substr(300, 100));
}

TEST_F(AlignerTest, HeaderMatchesReference) {
  PairedEndAligner aligner(*index_);
  SamHeader h = aligner.MakeHeader();
  ASSERT_EQ(h.refs.size(), 2u);
  EXPECT_EQ(h.refs[0].name, "chr1");
  EXPECT_EQ(h.refs[0].length, 80'000);
}

TEST_F(AlignerTest, WholeSampleAlignmentAccuracy) {
  // End-to-end: simulate reads from a donor and check >95% of non-junk
  // pairs align within 5 bp of their true origin.
  auto donor = PlantVariants(*ref_, VariantPlanterOptions{});
  ReadSimulatorOptions so;
  so.coverage = 1.0;
  auto sample = SimulateReads(donor, so);
  auto interleaved =
      InterleavePairs(sample.mate1, sample.mate2).ValueOrDie();
  PairedEndAligner aligner(*index_);
  auto records = aligner.AlignPairs(interleaved);
  ASSERT_EQ(records.size(), interleaved.size());

  int64_t correct = 0, evaluated = 0;
  for (size_t i = 0; i < sample.truth.size(); ++i) {
    const auto& t = sample.truth[i];
    if (t.junk_mate2) continue;
    const SamRecord& r1 = records[2 * i];
    if (r1.IsUnmapped()) continue;
    ++evaluated;
    if (r1.ref_id == t.chrom && std::abs(r1.pos - t.ref_start) <= 5) {
      ++correct;
    }
  }
  ASSERT_GT(evaluated, 100);
  EXPECT_GT(correct / static_cast<double>(evaluated), 0.95);
}

TEST_F(AlignerTest, InsertStatsEstimation) {
  PairedEndAligner aligner(*index_);
  // Construct synthetic candidate lists: 100 confident pairs at insert 400.
  std::vector<std::vector<Alignment>> c1, c2;
  for (int i = 0; i < 100; ++i) {
    Alignment fwd;
    fwd.ref_id = 0;
    fwd.pos = 1000 * i;
    fwd.reverse = false;
    fwd.cigar = {{'M', 100}};
    fwd.score = 100;
    Alignment rev = fwd;
    rev.pos = 1000 * i + 300;
    rev.reverse = true;
    c1.push_back({fwd});
    c2.push_back({rev});
  }
  auto stats = aligner.EstimateInsertStats(c1, c2);
  EXPECT_EQ(stats.samples, 100);
  EXPECT_DOUBLE_EQ(stats.mean, 400.0);
  EXPECT_DOUBLE_EQ(stats.sd, 1.0);  // clamped minimum
}

TEST_F(AlignerTest, FallbackInsertStatsWhenTooFewSamples) {
  PairedEndAligner aligner(*index_);
  auto stats = aligner.EstimateInsertStats({}, {});
  EXPECT_EQ(stats.samples, 0);
  EXPECT_DOUBLE_EQ(stats.mean, 400.0);
  EXPECT_DOUBLE_EQ(stats.sd, 60.0);
}

// A reference of 40,959 bases plus the index's sentinel is 40,960 BWT
// positions, a multiple of both 64 and 128. Every seed search starts
// with the rank at the end of the BWT, so the rank structure must answer
// it there, or every search comes back empty and no read maps.
TEST(AlignerBlockBoundaryTest, ReferenceFillingWholeRankBlocksStillMaps) {
  ReferenceGeneratorOptions ro;
  ro.num_chromosomes = 1;
  ro.chromosome_length = 40'959;
  ReferenceGenome ref = GenerateReference(ro);
  ASSERT_EQ(ref.TotalLength(), 40'959);
  GenomeIndex index(ref);
  ReadAligner aligner(index);
  const std::string& seq = ref.chromosomes[0].sequence;
  for (int i = 0; i < 40; ++i) {
    int64_t pos = 1'000 * i + 7;
    EXPECT_FALSE(aligner.AlignRead(seq.substr(pos, 100)).empty()) << pos;
  }
}

TEST_F(AlignerTest, PartitioningChangesSomeResults) {
  // The paper's core accuracy finding: running the aligner on partitioned
  // input produces slightly different results than one serial run.
  auto donor = PlantVariants(*ref_, VariantPlanterOptions{});
  ReadSimulatorOptions so;
  so.coverage = 2.0;
  auto sample = SimulateReads(donor, so);
  auto interleaved =
      InterleavePairs(sample.mate1, sample.mate2).ValueOrDie();

  PairedAlignerOptions po;
  po.batch_size = 512;
  PairedEndAligner aligner(*index_, po);

  auto serial = aligner.AlignPairs(interleaved);

  // "Parallel": split into 4 partitions at pair boundaries and align each.
  std::vector<SamRecord> parallel;
  size_t n_pairs = interleaved.size() / 2;
  size_t per_part = n_pairs / 4;
  for (int p = 0; p < 4; ++p) {
    size_t begin = 2 * p * per_part;
    size_t end = p == 3 ? interleaved.size() : 2 * (p + 1) * per_part;
    std::vector<FastqRecord> part(interleaved.begin() + begin,
                                  interleaved.begin() + end);
    auto out = aligner.AlignPairs(part);
    parallel.insert(parallel.end(), out.begin(), out.end());
  }
  ASSERT_EQ(parallel.size(), serial.size());

  int64_t discordant = 0;
  for (size_t i = 0; i < serial.size(); ++i) {
    if (serial[i].pos != parallel[i].pos ||
        serial[i].ref_id != parallel[i].ref_id ||
        serial[i].flag != parallel[i].flag) {
      ++discordant;
    }
  }
  // Most reads agree; a small tail differs (hard-to-map regions).
  EXPECT_LT(discordant, static_cast<int64_t>(serial.size() / 20));
}

}  // namespace
}  // namespace gesall
