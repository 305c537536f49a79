// Job cancellation: a run cancelled mid-flight must stop scheduling new
// work, surface Status::Cancelled with the cancellation cause, leave no
// partial DFS stage outputs visible.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gesall/pipeline.h"
#include "genome/read_simulator.h"
#include "genome/reference_generator.h"
#include "mr/mapreduce.h"
#include "util/cancel.h"

namespace gesall {
namespace {

TEST(CancelTokenTest, FirstCauseWinsAndCallbacksFireOnce) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.status().ok());
  int fired = 0;
  token.OnCancel([&] { fired++; });
  token.Cancel("first cause");
  token.Cancel("second cause");
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.cause(), "first cause");
  EXPECT_TRUE(token.status().IsCancelled());
  EXPECT_NE(token.status().ToString().find("first cause"), std::string::npos);
  EXPECT_EQ(fired, 1);
  // Late registration runs inline.
  token.OnCancel([&] { fired++; });
  EXPECT_EQ(fired, 2);
}

// A mapper that flips the shared token while the job is in flight: every
// split after the first must fail fast with the cancellation status.
class CancellingMapper : public Mapper {
 public:
  explicit CancellingMapper(std::shared_ptr<CancelToken> token)
      : token_(std::move(token)) {}
  Status Map(const std::string& input, MapContext* ctx) override {
    ctx->Emit("k", input);
    token_->Cancel("mapper pulled the plug");
    return Status::OK();
  }

 private:
  std::shared_ptr<CancelToken> token_;
};

class IdentityReducer : public Reducer {
 public:
  Status Reduce(const std::string& key,
                const std::vector<std::string>& values,
                ReduceContext* ctx) override {
    for (const auto& v : values) ctx->Emit(v);
    return Status::OK();
  }
};

TEST(MapReduceCancelTest, CancelledJobReturnsTheCause) {
  auto token = std::make_shared<CancelToken>();
  JobConfig cfg;
  cfg.num_reducers = 2;
  cfg.max_parallel_tasks = 1;  // deterministic: split 0 cancels split 1+
  cfg.max_task_attempts = 4;
  cfg.cancel = token;
  std::vector<InputSplit> splits;
  for (const char* s : {"s0", "s1", "s2", "s3"}) {
    splits.push_back(InlineSplit(s));
  }
  MapReduceJob job(cfg);
  auto result = job.Run(
      splits, [token] { return std::make_unique<CancellingMapper>(token); },
      [] { return std::make_unique<IdentityReducer>(); });
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("mapper pulled the plug"),
            std::string::npos);
}

class PipelineCancelTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    ReferenceGeneratorOptions ro;
    ro.num_chromosomes = 1;
    ro.chromosome_length = 25'000;
    ref_ = new ReferenceGenome(GenerateReference(ro));
    donor_ = new DonorGenome(PlantVariants(*ref_, VariantPlanterOptions{}));
    ReadSimulatorOptions so;
    so.coverage = 6.0;
    sample_ = new SimulatedSample(SimulateReads(*donor_, so));
    index_ = new GenomeIndex(*ref_);
  }

  static void TearDownTestSuite() {
    delete index_;
    delete sample_;
    delete donor_;
    delete ref_;
  }

  static DfsOptions MakeDfsOptions() {
    DfsOptions dopt;
    dopt.block_size = 64 * 1024;
    dopt.replication = 2;
    dopt.num_data_nodes = 4;
    return dopt;
  }

  static ReferenceGenome* ref_;
  static DonorGenome* donor_;
  static SimulatedSample* sample_;
  static GenomeIndex* index_;
};

ReferenceGenome* PipelineCancelTest::ref_ = nullptr;
DonorGenome* PipelineCancelTest::donor_ = nullptr;
SimulatedSample* PipelineCancelTest::sample_ = nullptr;
GenomeIndex* PipelineCancelTest::index_ = nullptr;

TEST_F(PipelineCancelTest, CancelledRunAllRemovesPartialStageOutputs) {
  Dfs dfs(MakeDfsOptions());
  PipelineConfig config;
  config.alignment_partitions = 2;
  auto token = std::make_shared<CancelToken>();
  config.cancel = token;
  GesallPipeline pipeline(*ref_, *index_, &dfs, config);
  ASSERT_TRUE(pipeline.LoadSample(sample_->mate1, sample_->mate2).ok());

  // Produce real round-1 output, then cancel: the next RunAll must fail
  // fast AND scrub the stale aligned partitions so no partial stage
  // output stays visible.
  ASSERT_TRUE(pipeline.RunRound1Alignment().ok());
  ASSERT_FALSE(dfs.List("/gesall/aligned/").empty());
  token->Cancel("tenant deleted the job");
  auto result = pipeline.RunAll();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("tenant deleted the job"),
            std::string::npos);
  EXPECT_TRUE(dfs.List("/gesall/aligned/").empty());
  EXPECT_TRUE(dfs.List("/gesall/sorted/").empty());
  auto stage = pipeline.ReadStageRecords("aligned");
  EXPECT_FALSE(stage.ok());
  // The loaded input partitions survive: a re-submitted job can reuse
  // them.
  EXPECT_FALSE(dfs.List("/gesall/input/").empty());
}

TEST_F(PipelineCancelTest, AsyncCancelMidRunUnwindsCooperatively) {
  Dfs dfs(MakeDfsOptions());
  PipelineConfig config;
  config.alignment_partitions = 2;
  auto token = std::make_shared<CancelToken>();
  config.cancel = token;
  GesallPipeline pipeline(*ref_, *index_, &dfs, config);
  ASSERT_TRUE(pipeline.LoadSample(sample_->mate1, sample_->mate2).ok());

  std::thread canceller([&] {
    // Flip the token the moment round-1 output becomes visible — with
    // four more rounds ahead, the run is guaranteed to be mid-flight.
    while (dfs.List("/gesall/aligned/").empty()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    token->Cancel("async abort");
  });
  auto result = pipeline.RunAll();
  canceller.join();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("async abort"),
            std::string::npos);
  // No partial stage output visible anywhere.
  for (const char* stage : {"aligned", "cleaned", "dedup", "sorted"}) {
    EXPECT_TRUE(dfs.List(std::string("/gesall/") + stage + "/").empty())
        << stage;
  }
}

}  // namespace
}  // namespace gesall
