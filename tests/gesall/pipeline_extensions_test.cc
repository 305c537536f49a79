// Tests for the optional pipeline features: parallel Base Recalibration
// rounds, the Unified Genotyper round-5 alternative, and the Round-4
// linear index sidecars.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "analysis/recalibration.h"
#include "formats/bam.h"
#include "gesall/diagnosis.h"
#include "gesall/linear_index.h"
#include "gesall/pipeline.h"
#include "genome/read_simulator.h"
#include "genome/reference_generator.h"

namespace gesall {
namespace {

class PipelineExtensionsTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    ReferenceGeneratorOptions ro;
    ro.num_chromosomes = 2;
    ro.chromosome_length = 80'000;
    ref_ = new ReferenceGenome(GenerateReference(ro));
    donor_ = new DonorGenome(PlantVariants(*ref_, VariantPlanterOptions{}));
    ReadSimulatorOptions so;
    so.coverage = 15.0;
    sample_ = new SimulatedSample(SimulateReads(*donor_, so));
    index_ = new GenomeIndex(*ref_);
  }
  static void TearDownTestSuite() {
    delete index_;
    delete sample_;
    delete donor_;
    delete ref_;
  }

  static std::unique_ptr<GesallPipeline> MakePipeline(Dfs* dfs,
                                                      PipelineConfig cfg) {
    auto p = std::make_unique<GesallPipeline>(*ref_, *index_, dfs, cfg);
    EXPECT_TRUE(p->LoadSample(sample_->mate1, sample_->mate2).ok());
    return p;
  }

  static ReferenceGenome* ref_;
  static DonorGenome* donor_;
  static SimulatedSample* sample_;
  static GenomeIndex* index_;
};

ReferenceGenome* PipelineExtensionsTest::ref_ = nullptr;
DonorGenome* PipelineExtensionsTest::donor_ = nullptr;
SimulatedSample* PipelineExtensionsTest::sample_ = nullptr;
GenomeIndex* PipelineExtensionsTest::index_ = nullptr;

TEST_F(PipelineExtensionsTest, RecalibrationRoundsRewriteQualities) {
  DfsOptions dopt;
  dopt.block_size = 256 * 1024;
  Dfs dfs(dopt);
  PipelineConfig cfg;
  cfg.run_recalibration = true;
  auto pipe = MakePipeline(&dfs, cfg);
  auto variants = pipe->RunAll();
  ASSERT_TRUE(variants.ok()) << variants.status().ToString();

  // The recal stage exists and qualities changed from the dedup stage.
  auto dedup = pipe->ReadStageRecords("dedup").ValueOrDie();
  auto recal = pipe->ReadStageRecords("recal").ValueOrDie();
  ASSERT_EQ(dedup.size(), recal.size());
  int64_t changed = 0;
  std::map<std::string, const SamRecord*> dedup_by_key;
  for (const auto& r : dedup) {
    dedup_by_key[r.qname + (r.IsFirstOfPair() ? "/1" : "/2")] = &r;
  }
  for (const auto& r : recal) {
    auto it = dedup_by_key.find(r.qname + (r.IsFirstOfPair() ? "/1" : "/2"));
    ASSERT_NE(it, dedup_by_key.end());
    if (r.qual != it->second->qual) ++changed;
  }
  EXPECT_GT(changed, static_cast<int64_t>(recal.size() / 2));

  // Stats contain the two extra rounds.
  std::set<std::string> names;
  for (const auto& s : pipe->stats()) names.insert(s.name);
  EXPECT_TRUE(names.count("round3.5_base_recalibrator"));
  EXPECT_TRUE(names.count("round3.5_print_reads"));
}

TEST_F(PipelineExtensionsTest, ParallelRecalMatchesSerialRecal) {
  // The merged per-partition tables must equal the serial whole-input
  // table, so the rewritten qualities agree with the serial pipeline's.
  DfsOptions dopt;
  dopt.block_size = 256 * 1024;
  Dfs dfs(dopt);
  PipelineConfig cfg;
  cfg.run_recalibration = true;
  auto pipe = MakePipeline(&dfs, cfg);
  ASSERT_TRUE(pipe->RunRound1Alignment().ok());
  ASSERT_TRUE(pipe->RunRound2Cleaning().ok());
  ASSERT_TRUE(pipe->RunRound3MarkDuplicates().ok());
  ASSERT_TRUE(pipe->RunRecalibrationRounds().ok());

  // Serial recalibration over the SAME (parallel) dedup records.
  auto dedup = pipe->ReadStageRecords("dedup").ValueOrDie();
  RecalibrationTable serial_table = BaseRecalibrator(*ref_, dedup);
  std::vector<SamRecord> serial_applied = dedup;
  PrintReads(serial_table, &serial_applied);

  auto recal = pipe->ReadStageRecords("recal").ValueOrDie();
  std::map<std::string, std::string> parallel_quals;
  for (const auto& r : recal) {
    parallel_quals[r.qname + (r.IsFirstOfPair() ? "/1" : "/2")] = r.qual;
  }
  int64_t mismatches = 0;
  for (const auto& r : serial_applied) {
    auto it =
        parallel_quals.find(r.qname + (r.IsFirstOfPair() ? "/1" : "/2"));
    ASSERT_NE(it, parallel_quals.end());
    if (it->second != r.qual) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
}

TEST_F(PipelineExtensionsTest, UnifiedGenotyperRoundWorks) {
  DfsOptions dopt;
  dopt.block_size = 256 * 1024;
  Dfs dfs(dopt);
  PipelineConfig cfg;
  cfg.variant_caller = PipelineConfig::VariantCaller::kUnifiedGenotyper;
  auto pipe = MakePipeline(&dfs, cfg);
  auto variants = pipe->RunAll();
  ASSERT_TRUE(variants.ok()) << variants.status().ToString();
  ASSERT_GT(variants.ValueOrDie().size(), 20u);

  auto ps = EvaluateAgainstTruth(variants.ValueOrDie(), donor_->truth);
  EXPECT_GT(ps.precision, 0.8);
  EXPECT_GT(ps.sensitivity, 0.5);

  bool saw_ug_round = false;
  for (const auto& s : pipe->stats()) {
    saw_ug_round |= s.name == "round5_unified_genotyper";
  }
  EXPECT_TRUE(saw_ug_round);
}

TEST_F(PipelineExtensionsTest, Round4WritesIndexSidecars) {
  DfsOptions dopt;
  dopt.block_size = 256 * 1024;
  Dfs dfs(dopt);
  auto pipe = MakePipeline(&dfs, PipelineConfig{});
  ASSERT_TRUE(pipe->RunRound1Alignment().ok());
  ASSERT_TRUE(pipe->RunRound2Cleaning().ok());
  ASSERT_TRUE(pipe->RunRound3MarkDuplicates().ok());
  ASSERT_TRUE(pipe->RunRound4Sort().ok());

  int indexes = 0;
  for (const auto& path : dfs.List("/gesall/sorted/")) {
    if (path.size() > 4 &&
        path.compare(path.size() - 4, 4, ".bai") == 0) {
      ++indexes;
      auto raw = dfs.Read(path).ValueOrDie();
      auto idx = LinearBamIndex::Deserialize(raw);
      ASSERT_TRUE(idx.ok());
      // Index agrees with its BAM partition.
      std::string bam_path = path.substr(0, path.size() - 4) + ".bam";
      auto bam = dfs.Read(bam_path).ValueOrDie();
      auto [h, records] = ReadBam(bam).ValueOrDie();
      EXPECT_EQ(idx.ValueOrDie().record_count(),
                static_cast<int64_t>(records.size()));
    }
  }
  EXPECT_GE(indexes, 2);
}

TEST_F(PipelineExtensionsTest, NodeFailureBetweenRoundsTolerated) {
  // DFS replication must carry the pipeline through a data-node loss
  // between rounds: reads fall back to surviving replicas.
  DfsOptions dopt;
  dopt.block_size = 256 * 1024;
  dopt.replication = 2;
  dopt.num_data_nodes = 4;
  Dfs dfs(dopt);
  auto pipe = MakePipeline(&dfs, PipelineConfig{});
  ASSERT_TRUE(pipe->RunRound1Alignment().ok());
  ASSERT_TRUE(pipe->RunRound2Cleaning().ok());
  ASSERT_TRUE(dfs.MarkNodeDown(1).ok());
  ASSERT_TRUE(pipe->RunRound3MarkDuplicates().ok());
  ASSERT_TRUE(pipe->RunRound4Sort().ok());
  auto variants = pipe->RunRound5VariantCalling();
  ASSERT_TRUE(variants.ok()) << variants.status().ToString();
  EXPECT_GT(variants.ValueOrDie().size(), 20u);
}

TEST_F(PipelineExtensionsTest, OverlappingSegmentsUseIndexAndMatch) {
  // Overlapping-segment round 5 (which reads via the index) produces
  // nearly the same calls as chromosome-level partitioning.
  DfsOptions dopt;
  dopt.block_size = 256 * 1024;
  Dfs dfs(dopt);
  auto pipe = MakePipeline(&dfs, PipelineConfig{});
  auto chrom_variants = pipe->RunAll();
  ASSERT_TRUE(chrom_variants.ok());

  PipelineConfig seg_cfg;
  seg_cfg.hc_partitioning =
      PipelineConfig::HcPartitioning::kOverlappingSegments;
  seg_cfg.hc_segments_per_chromosome = 3;
  GesallPipeline seg_pipe(*ref_, *index_, &dfs, seg_cfg);
  auto seg_variants = seg_pipe.RunRound5VariantCalling();
  ASSERT_TRUE(seg_variants.ok()) << seg_variants.status().ToString();

  auto disc = CompareVariants(chrom_variants.ValueOrDie(),
                              seg_variants.ValueOrDie());
  EXPECT_LT(disc.d_count(),
            static_cast<int64_t>(disc.concordant.size()) / 10 + 5);
}

}  // namespace
}  // namespace gesall
