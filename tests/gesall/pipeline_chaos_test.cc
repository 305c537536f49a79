// End-to-end chaos test: the full parallel pipeline under injected task
// failures and DFS replica failures. Recovery must be reproducible per
// seed and visible in the diagnosis report's fault-tolerance telemetry
// (correctness_matrix_test checks that it changes no output).

#include <gtest/gtest.h>

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

// One chaos execution: everything the assertions need to outlive the run.
// The injector outlives the Dfs because the DFS read path keeps a pointer
// to it (ReadStageRecords still consults it after the rounds finish).
struct ChaosRun {
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<Dfs> dfs;
  std::unique_ptr<GesallPipeline> pipeline;
  std::vector<VariantRecord> variants;
  FaultToleranceSummary summary;
  NodeFailureSummary node_summary;
};

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

std::string SummaryToString(const FaultToleranceSummary& s) {
  std::ostringstream os;
  os << "map_retries=" << s.map_task_retries
     << " reduce_retries=" << s.reduce_task_retries
     << " failed_over=" << s.blocks_failed_over
     << " replica_failures=" << s.replica_read_failures
     << " blacklisted=" << s.nodes_blacklisted;
  return os.str();
}

std::string NodeSummaryToString(const NodeFailureSummary& s) {
  std::ostringstream os;
  os << "corruptions=" << s.corruptions_detected
     << " quarantined=" << s.replicas_quarantined
     << " re_replicated=" << s.blocks_re_replicated
     << " dead=" << s.nodes_declared_dead
     << " restarts=" << s.node_restarts
     << " reexecuted=" << s.map_tasks_reexecuted
     << " lost_to_dead=" << s.map_outputs_lost_to_dead_nodes
     << " fetch_corruptions=" << s.shuffle_fetch_corruptions;
  return os.str();
}

class PipelineChaosTest : public testing::Test {
 protected:
  static DfsOptions MakeDfsOptions() {
    DfsOptions dopt;
    dopt.block_size = 64 * 1024;
    dopt.replication = 2;
    dopt.num_data_nodes = 4;
    // Keep every node usable for the whole run: blacklisting under a
    // sustained every-first-replica fault pattern would otherwise depend
    // on read order (it has its own unit tests in dfs_failover_test).
    dopt.blacklist_threshold = 1 << 20;
    return dopt;
  }

  static PipelineConfig MakePipelineConfig() {
    PipelineConfig config;
    config.alignment_partitions = 3;
    // Single-threaded execution keeps the DFS health-state evolution (and
    // with it every counter) a pure function of the fault seed.
    config.max_parallel_tasks = 1;
    return config;
  }

  // `streaming` fuses rounds 1+2, so the seeded map faults also land on
  // the fused align-and-clean tasks.
  static ChaosRun RunUnderChaos(uint64_t seed, bool streaming) {
    ChaosRun run;
    run.injector = std::make_unique<FaultInjector>(seed);
    EXPECT_TRUE(run.injector->ArmProbability(kFaultMapAttempt, 0.2).ok());
    EXPECT_TRUE(run.injector->ArmProbability(kFaultReduceAttempt, 0.2).ok());
    EXPECT_TRUE(
        run.injector->ArmFirstAttempts(kFaultDfsReadReplica, 1).ok());

    run.dfs = std::make_unique<Dfs>(MakeDfsOptions());
    PipelineConfig config = MakePipelineConfig();
    config.fault_injector = run.injector.get();
    config.max_task_attempts = 6;
    config.streaming = streaming;
    run.pipeline = std::make_unique<GesallPipeline>(*ref_, *index_,
                                                    run.dfs.get(), config);
    EXPECT_TRUE(
        run.pipeline->LoadSample(sample_->mate1, sample_->mate2).ok());
    auto variants = run.pipeline->RunAll();
    EXPECT_TRUE(variants.ok()) << variants.status().ToString();
    if (variants.ok()) run.variants = variants.MoveValueUnsafe();
    run.summary = run.pipeline->SummarizeFaultTolerance();
    return run;
  }

  // The node-chaos acceptance run: one replica of EVERY block corrupted
  // AND one node crashed mid-job (after round 1, via the heartbeat
  // clock). Replication 3 so a block whose first-placed replica rots and
  // whose second sits on the crashed node still has a healthy copy.
  static ChaosRun RunUnderNodeChaos(uint64_t seed) {
    ChaosRun run;
    run.injector = std::make_unique<FaultInjector>(seed);
    EXPECT_TRUE(
        run.injector->ArmFirstAttempts(kFaultDfsBlockCorrupt, 1).ok());
    // Crash the node that round 2's first split prefers: its map outputs
    // are lost at reduce fetch, forcing lost-map-output re-execution,
    // and its DFS replicas are dropped and re-replicated when the
    // heartbeat clock declares it dead at the end of round 1.
    const int crash_node = LogicalPartitionPlacementPolicy::PrimaryNodeFor(
        "/gesall/aligned/part-00000.bam", 4);
    run.injector->ArmSchedule(kFaultNodeCrash, crash_node, {0});

    DfsOptions dopt = MakeDfsOptions();
    dopt.replication = 3;
    dopt.heartbeat_miss_threshold = 1;
    run.dfs = std::make_unique<Dfs>(dopt);
    PipelineConfig config = MakePipelineConfig();
    config.fault_injector = run.injector.get();
    run.pipeline = std::make_unique<GesallPipeline>(*ref_, *index_,
                                                    run.dfs.get(), config);
    EXPECT_TRUE(
        run.pipeline->LoadSample(sample_->mate1, sample_->mate2).ok());
    auto variants = run.pipeline->RunAll();
    EXPECT_TRUE(variants.ok()) << variants.status().ToString();
    if (variants.ok()) run.variants = variants.MoveValueUnsafe();
    run.summary = run.pipeline->SummarizeFaultTolerance();
    run.node_summary = run.pipeline->SummarizeNodeFailures();
    return run;
  }

  static void SetUpTestSuite() {
    ReferenceGeneratorOptions ro;
    ro.num_chromosomes = 1;
    ro.chromosome_length = 40'000;
    ref_ = new ReferenceGenome(GenerateReference(ro));
    donor_ = new DonorGenome(PlantVariants(*ref_, VariantPlanterOptions{}));
    ReadSimulatorOptions so;
    so.coverage = 8.0;
    sample_ = new SimulatedSample(SimulateReads(*donor_, so));
    index_ = new GenomeIndex(*ref_);

    auto interleaved =
        InterleavePairs(sample_->mate1, sample_->mate2).ValueOrDie();
    serial_ = new SerialStageOutputs(
        RunSerialPipeline(*ref_, *index_, interleaved).ValueOrDie());

    // Fault-free baseline on the same sample and pipeline shape.
    baseline_dfs_ = new Dfs(MakeDfsOptions());
    GesallPipeline baseline(*ref_, *index_, baseline_dfs_,
                            MakePipelineConfig());
    ASSERT_TRUE(baseline.LoadSample(sample_->mate1, sample_->mate2).ok());
    auto variants = baseline.RunAll();
    ASSERT_TRUE(variants.ok()) << variants.status().ToString();
    baseline_summary_ =
        new FaultToleranceSummary(baseline.SummarizeFaultTolerance());
    baseline_node_summary_ =
        new NodeFailureSummary(baseline.SummarizeNodeFailures());

    chaos_ = new ChaosRun(RunUnderChaos(kChaosSeed, /*streaming=*/false));
    chaos_repeat_ =
        new ChaosRun(RunUnderChaos(kChaosSeed, /*streaming=*/false));
    streamed_chaos_ =
        new ChaosRun(RunUnderChaos(kChaosSeed, /*streaming=*/true));
    streamed_chaos_repeat_ =
        new ChaosRun(RunUnderChaos(kChaosSeed, /*streaming=*/true));
    node_chaos_ = new ChaosRun(RunUnderNodeChaos(kChaosSeed));
    node_chaos_repeat_ = new ChaosRun(RunUnderNodeChaos(kChaosSeed));
  }

  static void TearDownTestSuite() {
    delete node_chaos_repeat_;
    delete node_chaos_;
    delete streamed_chaos_repeat_;
    delete streamed_chaos_;
    delete chaos_repeat_;
    delete chaos_;
    delete baseline_node_summary_;
    delete baseline_summary_;
    delete baseline_dfs_;
    delete serial_;
    delete index_;
    delete sample_;
    delete donor_;
    delete ref_;
  }

  static ReferenceGenome* ref_;
  static DonorGenome* donor_;
  static SimulatedSample* sample_;
  static GenomeIndex* index_;
  static SerialStageOutputs* serial_;
  static Dfs* baseline_dfs_;
  static FaultToleranceSummary* baseline_summary_;
  static NodeFailureSummary* baseline_node_summary_;
  static ChaosRun* chaos_;
  static ChaosRun* chaos_repeat_;
  static ChaosRun* streamed_chaos_;
  static ChaosRun* streamed_chaos_repeat_;
  static ChaosRun* node_chaos_;
  static ChaosRun* node_chaos_repeat_;
};

ReferenceGenome* PipelineChaosTest::ref_ = nullptr;
DonorGenome* PipelineChaosTest::donor_ = nullptr;
SimulatedSample* PipelineChaosTest::sample_ = nullptr;
GenomeIndex* PipelineChaosTest::index_ = nullptr;
SerialStageOutputs* PipelineChaosTest::serial_ = nullptr;
Dfs* PipelineChaosTest::baseline_dfs_ = nullptr;
FaultToleranceSummary* PipelineChaosTest::baseline_summary_ = nullptr;
NodeFailureSummary* PipelineChaosTest::baseline_node_summary_ = nullptr;
ChaosRun* PipelineChaosTest::chaos_ = nullptr;
ChaosRun* PipelineChaosTest::chaos_repeat_ = nullptr;
ChaosRun* PipelineChaosTest::streamed_chaos_ = nullptr;
ChaosRun* PipelineChaosTest::streamed_chaos_repeat_ = nullptr;
ChaosRun* PipelineChaosTest::node_chaos_ = nullptr;
ChaosRun* PipelineChaosTest::node_chaos_repeat_ = nullptr;

TEST_F(PipelineChaosTest, SameSeedReproducesRunExactly) {
  EXPECT_EQ(VariantKeys(chaos_->variants),
            VariantKeys(chaos_repeat_->variants));
  EXPECT_EQ(SummaryToString(chaos_->summary),
            SummaryToString(chaos_repeat_->summary));
  // Failed fused align-and-clean attempts are retried reproducibly too.
  EXPECT_GT(streamed_chaos_->summary.map_task_retries, 0);
  EXPECT_EQ(VariantKeys(streamed_chaos_->variants),
            VariantKeys(streamed_chaos_repeat_->variants));
  EXPECT_EQ(SummaryToString(streamed_chaos_->summary),
            SummaryToString(streamed_chaos_repeat_->summary));
}

TEST_F(PipelineChaosTest, SummaryShowsTheRecoveries) {
  const FaultToleranceSummary& s = chaos_->summary;
  EXPECT_GT(s.map_task_retries + s.reduce_task_retries, 0);
  EXPECT_GT(s.blocks_failed_over, 0);
  EXPECT_GT(s.replica_read_failures, 0);
  EXPECT_TRUE(s.any_faults_survived());

  // The fault-free baseline shows nothing.
  EXPECT_FALSE(baseline_summary_->any_faults_survived());
  EXPECT_EQ(baseline_summary_->map_task_retries, 0);
  EXPECT_EQ(baseline_summary_->blocks_failed_over, 0);
}

TEST_F(PipelineChaosTest, DiagnosisReportSurfacesFaultTolerance) {
  auto aligned = chaos_->pipeline->ReadStageRecords("aligned");
  auto deduped = chaos_->pipeline->ReadStageRecords("dedup");
  ASSERT_TRUE(aligned.ok()) << aligned.status().ToString();
  ASSERT_TRUE(deduped.ok()) << deduped.status().ToString();

  DiagnosisReportInputs inputs;
  inputs.reference = ref_;
  inputs.serial = serial_;
  inputs.parallel_aligned = &aligned.ValueOrDie();
  inputs.parallel_deduped = &deduped.ValueOrDie();
  inputs.parallel_variants = &chaos_->variants;
  inputs.fault_tolerance = &chaos_->summary;
  auto report = GenerateDiagnosisReport(inputs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.ValueOrDie().fault_tolerance.any_faults_survived());
  const std::string& md = report.ValueOrDie().markdown;
  EXPECT_NE(md.find("## Fault tolerance"), std::string::npos);
  EXPECT_NE(md.find("blocks failed over"), std::string::npos);
  EXPECT_NE(md.find("produced UNDER faults"), std::string::npos);

  // Without the telemetry input the section is absent and zeroed.
  inputs.fault_tolerance = nullptr;
  auto plain = GenerateDiagnosisReport(inputs);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.ValueOrDie().markdown.find("## Fault tolerance"),
            std::string::npos);
  EXPECT_FALSE(plain.ValueOrDie().fault_tolerance.any_faults_survived());
}

// --- Node chaos: corruption on every block + a mid-job node crash ---

TEST_F(PipelineChaosTest, NodeChaosSameSeedReproducesRunExactly) {
  EXPECT_EQ(VariantKeys(node_chaos_->variants),
            VariantKeys(node_chaos_repeat_->variants));
  EXPECT_EQ(NodeSummaryToString(node_chaos_->node_summary),
            NodeSummaryToString(node_chaos_repeat_->node_summary));
}

TEST_F(PipelineChaosTest, NodeChaosSummaryShowsEveryRecoveryPath) {
  const NodeFailureSummary& s = node_chaos_->node_summary;
  // Corrupted replicas were detected by block checksums and quarantined.
  EXPECT_GT(s.corruptions_detected, 0);
  EXPECT_GT(s.replicas_quarantined, 0);
  // The scrubber restored replication (quarantined replicas + the dead
  // node's dropped blocks).
  EXPECT_GT(s.blocks_re_replicated, 0);
  // The crashed node was declared dead on missed heartbeats.
  EXPECT_EQ(s.nodes_declared_dead, 1);
  // Its completed map outputs were lost and the map tasks re-executed.
  EXPECT_GT(s.map_tasks_reexecuted, 0);
  EXPECT_GT(s.map_outputs_lost_to_dead_nodes, 0);
  // Every round's shuffle was checksum-verified.
  EXPECT_GT(s.shuffle_partitions_verified, 0);
  EXPECT_GT(s.shuffle_checksummed_bytes, 0);
  EXPECT_TRUE(s.any_node_failures_survived());

  // The fault-free baseline shows none of this.
  EXPECT_FALSE(baseline_node_summary_->any_node_failures_survived());
  EXPECT_EQ(baseline_node_summary_->corruptions_detected, 0);
  EXPECT_EQ(baseline_node_summary_->map_tasks_reexecuted, 0);
}

TEST_F(PipelineChaosTest, DiagnosisReportSurfacesNodeFailures) {
  auto aligned = node_chaos_->pipeline->ReadStageRecords("aligned");
  auto deduped = node_chaos_->pipeline->ReadStageRecords("dedup");
  ASSERT_TRUE(aligned.ok()) << aligned.status().ToString();
  ASSERT_TRUE(deduped.ok()) << deduped.status().ToString();

  DiagnosisReportInputs inputs;
  inputs.reference = ref_;
  inputs.serial = serial_;
  inputs.parallel_aligned = &aligned.ValueOrDie();
  inputs.parallel_deduped = &deduped.ValueOrDie();
  inputs.parallel_variants = &node_chaos_->variants;
  inputs.fault_tolerance = &node_chaos_->summary;
  inputs.node_failures = &node_chaos_->node_summary;
  auto report = GenerateDiagnosisReport(inputs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(
      report.ValueOrDie().node_failures.any_node_failures_survived());
  const std::string& md = report.ValueOrDie().markdown;
  EXPECT_NE(md.find("## Node failures"), std::string::npos);
  EXPECT_NE(md.find("corrupt replicas"), std::string::npos);
  EXPECT_NE(md.find("map tasks re-executed"), std::string::npos);
  EXPECT_NE(md.find("survived corruption/node loss"), std::string::npos);

  // Without the telemetry input the section is absent and zeroed.
  inputs.node_failures = nullptr;
  auto plain = GenerateDiagnosisReport(inputs);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.ValueOrDie().markdown.find("## Node failures"),
            std::string::npos);
  EXPECT_FALSE(
      plain.ValueOrDie().node_failures.any_node_failures_survived());
}

}  // namespace
}  // namespace gesall
