#include "gesall/report.h"

#include <gtest/gtest.h>

#include <tuple>

#include "align/aligner.h"
#include "genome/read_simulator.h"
#include "genome/reference_generator.h"

namespace gesall {
namespace {

class ReportTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    ReferenceGeneratorOptions ro;
    ro.num_chromosomes = 2;
    ro.chromosome_length = 70'000;
    ref_ = new ReferenceGenome(GenerateReference(ro));
    donor_ = new DonorGenome(PlantVariants(*ref_, VariantPlanterOptions{}));
    ReadSimulatorOptions so;
    so.coverage = 15.0;
    auto sample = SimulateReads(*donor_, so);
    GenomeIndex index(*ref_);
    auto interleaved =
        InterleavePairs(sample.mate1, sample.mate2).ValueOrDie();
    serial_ = new SerialStageOutputs(
        RunSerialPipeline(*ref_, index, interleaved).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete serial_;
    delete donor_;
    delete ref_;
  }

  static ReferenceGenome* ref_;
  static DonorGenome* donor_;
  static SerialStageOutputs* serial_;
};

ReferenceGenome* ReportTest::ref_ = nullptr;
DonorGenome* ReportTest::donor_ = nullptr;
SerialStageOutputs* ReportTest::serial_ = nullptr;

TEST_F(ReportTest, SelfComparisonAccepts) {
  // Comparing the serial pipeline against itself must trivially pass
  // every acceptance criterion.
  DiagnosisReportInputs inputs;
  inputs.reference = ref_;
  inputs.serial = serial_;
  inputs.parallel_aligned = &serial_->aligned;
  inputs.parallel_deduped = &serial_->deduped;
  inputs.parallel_variants = &serial_->variants;
  inputs.truth = &donor_->truth;
  auto report = GenerateDiagnosisReport(inputs).ValueOrDie();
  EXPECT_EQ(report.alignment.d_count, 0);
  EXPECT_EQ(report.duplicates.d_count, 0);
  EXPECT_EQ(report.variants.d_count(), 0);
  EXPECT_TRUE(report.discordance_is_low_quality);
  EXPECT_TRUE(report.variant_impact_small);
  EXPECT_TRUE(report.truth_scores_match);
  EXPECT_NE(report.markdown.find("ACCEPT"), std::string::npos);
}

TEST_F(ReportTest, MarkdownContainsAllSections) {
  DiagnosisReportInputs inputs;
  inputs.reference = ref_;
  inputs.serial = serial_;
  inputs.parallel_aligned = &serial_->aligned;
  inputs.parallel_deduped = &serial_->deduped;
  inputs.parallel_variants = &serial_->variants;
  inputs.truth = &donor_->truth;
  auto report = GenerateDiagnosisReport(inputs).ValueOrDie();
  for (const char* section :
       {"# Parallel pipeline error-tracking report",
        "## Stage 1: alignment", "## Stage 2: duplicate marking",
        "## Stage 3: final variant calls", "## Truth-set scoring",
        "## Verdict"}) {
    EXPECT_NE(report.markdown.find(section), std::string::npos) << section;
  }
}

TEST_F(ReportTest, TruthSectionOptional) {
  DiagnosisReportInputs inputs;
  inputs.reference = ref_;
  inputs.serial = serial_;
  inputs.parallel_aligned = &serial_->aligned;
  inputs.parallel_deduped = &serial_->deduped;
  inputs.parallel_variants = &serial_->variants;
  auto report = GenerateDiagnosisReport(inputs).ValueOrDie();
  EXPECT_EQ(report.markdown.find("Truth-set scoring"), std::string::npos);
  EXPECT_TRUE(report.truth_scores_match);  // vacuously true
}

TEST_F(ReportTest, DiskBytesSectionRendersStorageSummary) {
  DiagnosisReportInputs inputs;
  inputs.reference = ref_;
  inputs.serial = serial_;
  inputs.parallel_aligned = &serial_->aligned;
  inputs.parallel_deduped = &serial_->deduped;
  inputs.parallel_variants = &serial_->variants;

  // Without a storage summary the section is omitted entirely.
  auto plain = GenerateDiagnosisReport(inputs).ValueOrDie();
  EXPECT_EQ(plain.markdown.find("Disk bytes"), std::string::npos);

  StorageSummary storage;
  storage.shuffle_bytes_raw = 4'000'000;
  storage.shuffle_bytes_compressed = 1'000'000;
  storage.shuffle_compress_micros = 120'000;
  storage.dfs_bytes_raw = 2'000'000;
  storage.dfs_bytes_compressed = 500'000;
  inputs.storage = &storage;
  auto report = GenerateDiagnosisReport(inputs).ValueOrDie();
  EXPECT_NE(report.markdown.find("## Disk bytes"), std::string::npos);
  EXPECT_NE(report.markdown.find("4.00x"), std::string::npos);
  EXPECT_NE(report.markdown.find("round-trips byte-identically"),
            std::string::npos);
  EXPECT_EQ(report.storage.shuffle_bytes_raw, 4'000'000);
}

TEST_F(ReportTest, ExecutionEngineSectionNamesTheSchedule) {
  DiagnosisReportInputs inputs;
  inputs.reference = ref_;
  inputs.serial = serial_;
  inputs.parallel_aligned = &serial_->aligned;
  inputs.parallel_deduped = &serial_->deduped;
  inputs.parallel_variants = &serial_->variants;
  ExecutionSummary ex;
  inputs.execution = &ex;
  for (const auto& [pipelined, streaming, mode] :
       {std::tuple(false, false, "- mode: barriered rounds"),
        std::tuple(true, false, "- mode: pipelined (per-partition overlap)"),
        std::tuple(true, true, "- mode: streaming (rounds 1+2 fused")}) {
    ex.pipelined = pipelined;
    ex.streaming = streaming;
    auto report = GenerateDiagnosisReport(inputs).ValueOrDie();
    EXPECT_NE(report.markdown.find("## Execution engine"), std::string::npos);
    EXPECT_NE(report.markdown.find(mode), std::string::npos) << mode;
  }
}

TEST_F(ReportTest, CorruptedVariantsTriggerReview) {
  // Feed a parallel variant set missing 20% of calls and carrying junk
  // high-quality extras: the verdict must flip to REVIEW.
  std::vector<VariantRecord> corrupted(
      serial_->variants.begin(),
      serial_->variants.begin() + serial_->variants.size() * 8 / 10);
  for (int i = 0; i < 40; ++i) {
    VariantRecord junk;
    junk.chrom = 0;
    junk.pos = 60'000 + i * 10;
    junk.ref = "A";
    junk.alt = "T";
    junk.qual = 99;
    corrupted.push_back(junk);
  }
  DiagnosisReportInputs inputs;
  inputs.reference = ref_;
  inputs.serial = serial_;
  inputs.parallel_aligned = &serial_->aligned;
  inputs.parallel_deduped = &serial_->deduped;
  inputs.parallel_variants = &corrupted;
  inputs.truth = &donor_->truth;
  auto report = GenerateDiagnosisReport(inputs).ValueOrDie();
  EXPECT_FALSE(report.variant_impact_small);
  EXPECT_NE(report.markdown.find("REVIEW"), std::string::npos);
}

TEST_F(ReportTest, MissingInputsRejected) {
  DiagnosisReportInputs inputs;
  inputs.reference = ref_;
  EXPECT_TRUE(
      GenerateDiagnosisReport(inputs).status().IsInvalidArgument());
}

}  // namespace
}  // namespace gesall
