// Partition output — build a partition's BAM, write it to the DFS, add
// the round-4 index sidecar — runs on the worker of the task that made
// the partition, a reduce or a map-only task, in both engines. These
// tests pin what moved with it: a failed write still fails RunAll() and
// leaves its round unsealed, and the time each round spends on it shows
// in the round's own telemetry.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "gesall/pipeline.h"
#include "gesall/report.h"
#include "genome/read_simulator.h"
#include "genome/reference_generator.h"

namespace gesall {
namespace {

namespace fs = std::filesystem;

class PartitionOutputTest : public testing::TestWithParam<bool> {
 protected:
  static void SetUpTestSuite() {
    ReferenceGeneratorOptions ro;
    ro.num_chromosomes = 2;
    ro.chromosome_length = 20'000;
    ref_ = new ReferenceGenome(GenerateReference(ro));
    donor_ = new DonorGenome(PlantVariants(*ref_, VariantPlanterOptions{}));
    ReadSimulatorOptions so;
    so.coverage = 5.0;
    sample_ = new SimulatedSample(SimulateReads(*donor_, so));
    index_ = new GenomeIndex(*ref_);
  }
  static void TearDownTestSuite() {
    delete index_;
    delete sample_;
    delete donor_;
    delete ref_;
  }

  void SetUp() override {
    std::string name =
        testing::UnitTest::GetInstance()->current_test_info()->name();
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    root_ = (fs::temp_directory_path() / ("gesall_partition_output_" + name))
                .string();
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  static PipelineConfig Config() {
    PipelineConfig config;
    config.alignment_partitions = 2;
    config.max_parallel_tasks = 2;
    config.pipelined = GetParam();
    config.write_manifests = true;
    return config;
  }

  std::string root_;
  static ReferenceGenome* ref_;
  static DonorGenome* donor_;
  static SimulatedSample* sample_;
  static GenomeIndex* index_;
};

ReferenceGenome* PartitionOutputTest::ref_ = nullptr;
DonorGenome* PartitionOutputTest::donor_ = nullptr;
SimulatedSample* PartitionOutputTest::sample_ = nullptr;
GenomeIndex* PartitionOutputTest::index_ = nullptr;

// Once round 1 is sealed, the durable DFS's block directory becomes a
// plain file, so every later payload write fails with IOError. Round 2's
// partitions are the first files written after that: RunAll() must
// return their callbacks' error, and round 2 must never seal.
TEST_P(PartitionOutputTest, FailedWriteFailsRunAndLeavesRoundUnsealed) {
  DfsOptions dopt;
  dopt.block_size = 64 * 1024;
  dopt.replication = 2;
  dopt.num_data_nodes = 4;
  dopt.durability.root_dir = root_;
  Dfs dfs(dopt);

  PipelineConfig config = Config();
  const std::string blocks_dir = root_ + "/blocks";
  config.on_round_complete = [&](int round_index, const std::string&) {
    if (round_index != kRoundAlignment) return;
    fs::remove_all(blocks_dir);
    std::ofstream(blocks_dir) << "not a directory";
  };
  GesallPipeline pipeline(*ref_, *index_, &dfs, config);
  ASSERT_TRUE(pipeline.LoadSample(sample_->mate1, sample_->mate2).ok());

  auto variants = pipeline.RunAll();
  ASSERT_FALSE(variants.ok());
  EXPECT_TRUE(variants.status().IsIOError()) << variants.status().ToString();
  EXPECT_TRUE(dfs.Exists("/gesall/manifests/round-1"));
  EXPECT_FALSE(dfs.Exists("/gesall/manifests/round-2"));
}

// A successful run charges the partition output of each stage that
// writes parts, round 1 included, to its partition_output_micros
// counter; the execution summary and the report carry it per round.
TEST_P(PartitionOutputTest, RoundsReportPartitionOutputTime) {
  Dfs dfs(DfsOptions{});
  GesallPipeline pipeline(*ref_, *index_, &dfs, Config());
  ASSERT_TRUE(pipeline.LoadSample(sample_->mate1, sample_->mate2).ok());
  auto variants = pipeline.RunAll();
  ASSERT_TRUE(variants.ok()) << variants.status().ToString();

  int writing_stages = 0;
  for (const auto& round : pipeline.stats()) {
    const bool writes = round.name == "round1_alignment" ||
                        round.name == "round2_cleaning" ||
                        round.name.rfind("round3_markdup", 0) == 0 ||
                        round.name == "round4_sort";
    if (!writes) {
      EXPECT_EQ(round.counters.Get(kPartitionOutputMicros), 0) << round.name;
      continue;
    }
    ++writing_stages;
    EXPECT_GT(round.counters.Get(kPartitionOutputMicros), 0) << round.name;
  }
  EXPECT_EQ(writing_stages, 4);

  const ExecutionSummary& ex = pipeline.SummarizeExecution();
  double summed = 0;
  for (const auto& span : ex.rounds) summed += span.partition_output_seconds;
  EXPECT_GT(summed, 0.0);

  auto interleaved =
      InterleavePairs(sample_->mate1, sample_->mate2).ValueOrDie();
  SerialStageOutputs serial =
      RunSerialPipeline(*ref_, *index_, interleaved).ValueOrDie();
  auto aligned = pipeline.ReadStageRecords("aligned");
  auto deduped = pipeline.ReadStageRecords("dedup");
  ASSERT_TRUE(aligned.ok() && deduped.ok());
  DiagnosisReportInputs inputs;
  inputs.reference = ref_;
  inputs.serial = &serial;
  inputs.parallel_aligned = &aligned.ValueOrDie();
  inputs.parallel_deduped = &deduped.ValueOrDie();
  inputs.parallel_variants = &variants.ValueOrDie();
  inputs.execution = &ex;
  auto report = GenerateDiagnosisReport(inputs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report.ValueOrDie().markdown.find("partition output"),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Engines, PartitionOutputTest, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "Pipelined" : "Barriered";
                         });

}  // namespace
}  // namespace gesall
