// Pipelined round-DAG acceptance tests: running RunAll() with
// config.pipelined = true (rounds overlap per partition on the shared
// work-stealing executor) must be invisible in every output — stage part
// bytes in DFS, variant calls, and per-record round counters are
// byte-identical to the barriered engine — and visible only in the
// execution-engine telemetry. Also covers determinism of chaos recovery
// mid-overlap.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gesall/pipeline.h"
#include "gesall/report.h"
#include "genome/read_simulator.h"
#include "genome/reference_generator.h"
#include "util/fault_injection.h"

namespace gesall {
namespace {

constexpr uint64_t kChaosSeed = 2017;

const char* const kStageDirs[] = {"/gesall/aligned/", "/gesall/cleaned/",
                                  "/gesall/dedup/", "/gesall/sorted/"};

std::vector<std::string> VariantKeys(const std::vector<VariantRecord>& vs) {
  std::vector<std::string> keys;
  keys.reserve(vs.size());
  for (const auto& v : vs) {
    std::ostringstream os;
    os << v.Key() << "@" << v.qual;
    keys.push_back(os.str());
  }
  return keys;
}

// Per-round counters with the wall-clock-dependent *_micros keys dropped:
// the pipelined engine moves work in time, never in kind.
std::vector<std::map<std::string, int64_t>> RecordCounters(
    const GesallPipeline& p) {
  std::vector<std::map<std::string, int64_t>> rounds;
  for (const auto& round : p.stats()) {
    std::map<std::string, int64_t> counters;
    for (const auto& [name, value] : round.counters.values()) {
      if (name.size() >= 7 &&
          name.compare(name.size() - 7, 7, "_micros") == 0) {
        continue;
      }
      counters[name] = value;
    }
    rounds.push_back(std::move(counters));
  }
  return rounds;
}

// One full pipeline execution with everything the comparisons need.
struct ModeRun {
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<Dfs> dfs;
  std::unique_ptr<GesallPipeline> pipeline;
  std::vector<VariantRecord> variants;
};

class PipelineDagTest : public testing::Test {
 protected:
  static DfsOptions MakeDfsOptions() {
    DfsOptions dopt;
    dopt.block_size = 64 * 1024;
    dopt.replication = 2;
    dopt.num_data_nodes = 4;
    dopt.blacklist_threshold = 1 << 20;
    return dopt;
  }

  static PipelineConfig MakePipelineConfig(bool pipelined) {
    PipelineConfig config;
    config.alignment_partitions = 3;
    config.pipelined = pipelined;
    return config;
  }

  static ModeRun RunMode(bool pipelined, bool run_recalibration) {
    ModeRun run;
    run.dfs = std::make_unique<Dfs>(MakeDfsOptions());
    PipelineConfig config = MakePipelineConfig(pipelined);
    config.run_recalibration = run_recalibration;
    run.pipeline = std::make_unique<GesallPipeline>(*ref_, *index_,
                                                    run.dfs.get(), config);
    EXPECT_TRUE(
        run.pipeline->LoadSample(sample_->mate1, sample_->mate2).ok());
    auto variants = run.pipeline->RunAll();
    EXPECT_TRUE(variants.ok()) << variants.status().ToString();
    if (variants.ok()) run.variants = variants.MoveValueUnsafe();
    return run;
  }

  // The chaos-mid-overlap acceptance run: one replica of every block
  // corrupted plus a node crash after round 1, while rounds overlap.
  // Mirrors pipeline_chaos_test's node-chaos arming; determinism holds
  // across modes because every injector decision is a pure function of
  // (point, key, attempt) and task keys are stable split/partition
  // indices, not arrival order.
  static ModeRun RunNodeChaos(bool pipelined, uint64_t seed) {
    ModeRun run;
    run.injector = std::make_unique<FaultInjector>(seed);
    EXPECT_TRUE(
        run.injector->ArmFirstAttempts(kFaultDfsBlockCorrupt, 1).ok());
    const int crash_node = LogicalPartitionPlacementPolicy::PrimaryNodeFor(
        "/gesall/aligned/part-00000.bam", 4);
    run.injector->ArmSchedule(kFaultNodeCrash, crash_node, {0});

    DfsOptions dopt = MakeDfsOptions();
    dopt.replication = 3;
    dopt.heartbeat_miss_threshold = 1;
    run.dfs = std::make_unique<Dfs>(dopt);
    PipelineConfig config = MakePipelineConfig(pipelined);
    // Single-threaded execution keeps the DFS health-state evolution a
    // pure function of the fault seed, as in pipeline_chaos_test.
    config.max_parallel_tasks = 1;
    config.fault_injector = run.injector.get();
    run.pipeline = std::make_unique<GesallPipeline>(*ref_, *index_,
                                                    run.dfs.get(), config);
    EXPECT_TRUE(
        run.pipeline->LoadSample(sample_->mate1, sample_->mate2).ok());
    auto variants = run.pipeline->RunAll();
    EXPECT_TRUE(variants.ok()) << variants.status().ToString();
    if (variants.ok()) run.variants = variants.MoveValueUnsafe();
    return run;
  }

  static void SetUpTestSuite() {
    ReferenceGeneratorOptions ro;
    ro.num_chromosomes = 2;
    ro.chromosome_length = 30'000;
    ref_ = new ReferenceGenome(GenerateReference(ro));
    donor_ = new DonorGenome(PlantVariants(*ref_, VariantPlanterOptions{}));
    ReadSimulatorOptions so;
    so.coverage = 6.0;
    sample_ = new SimulatedSample(SimulateReads(*donor_, so));
    index_ = new GenomeIndex(*ref_);

    barriered_ = new ModeRun(RunMode(/*pipelined=*/false, false));
    pipelined_ = new ModeRun(RunMode(/*pipelined=*/true, false));
    barriered_recal_ = new ModeRun(RunMode(/*pipelined=*/false, true));
    pipelined_recal_ = new ModeRun(RunMode(/*pipelined=*/true, true));
    chaos_barriered_ =
        new ModeRun(RunNodeChaos(/*pipelined=*/false, kChaosSeed));
    chaos_pipelined_ =
        new ModeRun(RunNodeChaos(/*pipelined=*/true, kChaosSeed));
  }

  static void TearDownTestSuite() {
    delete chaos_pipelined_;
    delete chaos_barriered_;
    delete pipelined_recal_;
    delete barriered_recal_;
    delete pipelined_;
    delete barriered_;
    delete index_;
    delete sample_;
    delete donor_;
    delete ref_;
  }

  static void ExpectStagePartsIdentical(const ModeRun& a, const ModeRun& b) {
    for (const char* dir : kStageDirs) {
      std::vector<std::string> paths_a = a.dfs->List(dir);
      std::vector<std::string> paths_b = b.dfs->List(dir);
      EXPECT_EQ(paths_a, paths_b) << dir;
      for (const auto& path : paths_a) {
        if (!b.dfs->Exists(path)) continue;
        auto bytes_a = a.dfs->Read(path);
        auto bytes_b = b.dfs->Read(path);
        ASSERT_TRUE(bytes_a.ok() && bytes_b.ok()) << path;
        EXPECT_TRUE(bytes_a.ValueOrDie() == bytes_b.ValueOrDie())
            << path << " differs between barriered and pipelined runs";
      }
    }
  }

  static ReferenceGenome* ref_;
  static DonorGenome* donor_;
  static SimulatedSample* sample_;
  static GenomeIndex* index_;
  static ModeRun* barriered_;
  static ModeRun* pipelined_;
  static ModeRun* barriered_recal_;
  static ModeRun* pipelined_recal_;
  static ModeRun* chaos_barriered_;
  static ModeRun* chaos_pipelined_;
};

ReferenceGenome* PipelineDagTest::ref_ = nullptr;
DonorGenome* PipelineDagTest::donor_ = nullptr;
SimulatedSample* PipelineDagTest::sample_ = nullptr;
GenomeIndex* PipelineDagTest::index_ = nullptr;
ModeRun* PipelineDagTest::barriered_ = nullptr;
ModeRun* PipelineDagTest::pipelined_ = nullptr;
ModeRun* PipelineDagTest::barriered_recal_ = nullptr;
ModeRun* PipelineDagTest::pipelined_recal_ = nullptr;
ModeRun* PipelineDagTest::chaos_barriered_ = nullptr;
ModeRun* PipelineDagTest::chaos_pipelined_ = nullptr;

TEST_F(PipelineDagTest, VariantsByteIdenticalAcrossModes) {
  ASSERT_FALSE(barriered_->variants.empty());
  EXPECT_EQ(VariantKeys(barriered_->variants),
            VariantKeys(pipelined_->variants));
}

TEST_F(PipelineDagTest, StagePartBytesIdenticalAcrossModes) {
  ExpectStagePartsIdentical(*barriered_, *pipelined_);
}

TEST_F(PipelineDagTest, RoundCountersIdenticalAcrossModes) {
  auto barriered = RecordCounters(*barriered_->pipeline);
  auto pipelined = RecordCounters(*pipelined_->pipeline);
  ASSERT_EQ(barriered.size(), pipelined.size());
  for (size_t i = 0; i < barriered.size(); ++i) {
    EXPECT_EQ(barriered_->pipeline->stats()[i].name,
              pipelined_->pipeline->stats()[i].name);
    EXPECT_EQ(barriered[i], pipelined[i])
        << "round " << barriered_->pipeline->stats()[i].name;
  }
}

TEST_F(PipelineDagTest, RecalibrationRoundsIdenticalAcrossModes) {
  ASSERT_FALSE(barriered_recal_->variants.empty());
  EXPECT_EQ(VariantKeys(barriered_recal_->variants),
            VariantKeys(pipelined_recal_->variants));
  auto barriered = RecordCounters(*barriered_recal_->pipeline);
  auto pipelined = RecordCounters(*pipelined_recal_->pipeline);
  EXPECT_EQ(barriered, pipelined);
}

TEST_F(PipelineDagTest, ChaosRecoveryMidOverlapMatchesBarriered) {
  // Recovery must actually have fired...
  const NodeFailureSummary nodes =
      chaos_pipelined_->pipeline->SummarizeNodeFailures();
  EXPECT_GT(nodes.corruptions_detected, 0);
  EXPECT_GT(nodes.nodes_declared_dead, 0);
  // ...and be invisible: same calls as the barriered engine under the
  // identical fault schedule, and as the fault-free runs.
  ASSERT_FALSE(chaos_barriered_->variants.empty());
  EXPECT_EQ(VariantKeys(chaos_barriered_->variants),
            VariantKeys(chaos_pipelined_->variants));
  EXPECT_EQ(VariantKeys(barriered_->variants),
            VariantKeys(chaos_pipelined_->variants));
}

TEST_F(PipelineDagTest, ExecutionSummaryDescribesEachMode) {
  const ExecutionSummary& barriered =
      barriered_->pipeline->SummarizeExecution();
  EXPECT_FALSE(barriered.pipelined);
  EXPECT_GT(barriered.tasks_executed, 0);
  EXPECT_FALSE(barriered.rounds.empty());

  const ExecutionSummary& pipelined =
      pipelined_->pipeline->SummarizeExecution();
  EXPECT_TRUE(pipelined.pipelined);
  EXPECT_GT(pipelined.tasks_executed, 0);
  EXPECT_GT(pipelined.wall_seconds, 0.0);
  EXPECT_FALSE(pipelined.rounds.empty());
  // Serialized time sums the round spans; with overlap it can only be
  // >= the observed wall clock.
  EXPECT_GE(pipelined.serialized_round_seconds,
            pipelined.wall_seconds - 1e-9);
}

TEST_F(PipelineDagTest, ReportRendersExecutionEngineSection) {
  auto interleaved =
      InterleavePairs(sample_->mate1, sample_->mate2).ValueOrDie();
  SerialStageOutputs serial =
      RunSerialPipeline(*ref_, *index_, interleaved).ValueOrDie();
  auto aligned = pipelined_->pipeline->ReadStageRecords("aligned");
  auto deduped = pipelined_->pipeline->ReadStageRecords("dedup");
  ASSERT_TRUE(aligned.ok() && deduped.ok());

  DiagnosisReportInputs inputs;
  inputs.reference = ref_;
  inputs.serial = &serial;
  inputs.parallel_aligned = &aligned.ValueOrDie();
  inputs.parallel_deduped = &deduped.ValueOrDie();
  inputs.parallel_variants = &pipelined_->variants;
  inputs.execution = &pipelined_->pipeline->SummarizeExecution();
  auto report = GenerateDiagnosisReport(inputs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::string& md = report.ValueOrDie().markdown;
  EXPECT_NE(md.find("## Execution engine"), std::string::npos);
  EXPECT_NE(md.find("pipelined (per-partition overlap)"),
            std::string::npos);
}

}  // namespace
}  // namespace gesall
