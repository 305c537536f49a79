// Whole-node failure and shuffle integrity of the MapReduce engine:
// CRC32C checksums over frozen shuffle runs, reduce-fetch verification,
// and Hadoop's lost-map-output semantics — a completed map task whose
// output sat on a crashed node (or no longer verifies) is re-executed on
// a live node, at most kMaxMapReexecutions times.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "mr/mapreduce.h"
#include "mr/shuffle_buffer.h"
#include "util/fault_injection.h"

namespace gesall {
namespace {

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

std::vector<InputSplit> WordSplits(int n) {
  std::vector<InputSplit> splits;
  for (int i = 0; i < n; ++i) {
    splits.push_back(InlineSplit("k" + std::to_string(i % 5) + " common"));
  }
  return splits;
}

Result<JobResult> RunWordCount(const JobConfig& cfg,
                               const std::vector<InputSplit>& splits) {
  MapReduceJob job(cfg);
  return job.Run(
      splits, [] { return std::make_unique<WordCountMapper>(); },
      [] { return std::make_unique<SumReducer>(); });
}

// --- ShuffleBuffer checksum unit coverage ---

TEST(ShuffleChecksumTest, FrozenRunsVerifyAndCorruptionIsDetected) {
  ShuffleBuffer buffer(2, /*sort_buffer_bytes=*/64, /*checksum=*/true);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        buffer.Add(i % 2, "key" + std::to_string(i % 7), "value").ok());
  }
  ASSERT_TRUE(buffer.Finish().ok());
  ASSERT_TRUE(buffer.checksummed());
  EXPECT_GT(buffer.stats().checksummed_bytes, 0);
  for (int p = 0; p < 2; ++p) {
    EXPECT_TRUE(buffer.VerifyPartition(p).ok());
    EXPECT_FALSE(buffer.chunk_crcs(p).empty());
  }

  // Rot one arena byte behind the frozen views: verification notices.
  ASSERT_FALSE(buffer.runs(0).empty());
  const ShuffleRun& run = buffer.runs(0).front();
  ASSERT_FALSE(run.empty());
  char* byte = const_cast<char*>(run[0].value.data());
  *byte ^= 0x01;
  Status verify = buffer.VerifyPartition(0);
  ASSERT_FALSE(verify.ok());
  EXPECT_TRUE(verify.IsCorruption());
  EXPECT_TRUE(buffer.VerifyPartition(1).ok());  // other partition intact
  *byte ^= 0x01;
  EXPECT_TRUE(buffer.VerifyPartition(0).ok());
}

TEST(ShuffleChecksumTest, DisabledChecksumSkipsSumsAndVerification) {
  ShuffleBuffer buffer(1, 1 << 20, /*checksum=*/false);
  ASSERT_TRUE(buffer.Add(0, "k", "v").ok());
  ASSERT_TRUE(buffer.Finish().ok());
  EXPECT_FALSE(buffer.checksummed());
  EXPECT_TRUE(buffer.chunk_crcs(0).empty());
  EXPECT_EQ(buffer.stats().checksummed_bytes, 0);
  EXPECT_TRUE(buffer.VerifyPartition(0).ok());
}

// --- Lost-map-output re-execution ---

TEST(MapReduceNodeFailureTest, CrashedNodeMapOutputsAreReExecuted) {
  auto splits = WordSplits(8);
  JobConfig clean;
  clean.num_nodes = 4;
  auto baseline = RunWordCount(clean, splits).ValueOrDie();

  FaultInjector injector(5);
  // Node 1 is dead for the job's fetch phase (attempt 0 = the heartbeat
  // epoch the job master observes).
  injector.ArmSchedule(kFaultNodeCrash, /*key=*/1, {0});
  JobConfig cfg;
  cfg.num_nodes = 4;
  cfg.fault_injector = &injector;
  auto result = RunWordCount(cfg, splits).ValueOrDie();

  // Round-robin placement: splits 1 and 5 ran on node 1 and must be
  // re-executed; the output is identical to the crash-free run.
  EXPECT_EQ(result.reducer_outputs, baseline.reducer_outputs);
  EXPECT_EQ(result.counters.Get("map_tasks_reexecuted"), 2);
  EXPECT_EQ(result.counters.Get("map_outputs_lost_to_dead_nodes"), 2);
  EXPECT_EQ(result.counters.Get("map_output_records"),
            result.counters.Get("reduce_shuffle_records"));

  // The re-executed tasks record the live node they moved to.
  for (const auto& task : result.tasks) {
    if (task.type != TaskRecord::Type::kMap) continue;
    EXPECT_GE(task.node, 0);
    if (task.index == 1 || task.index == 5) {
      EXPECT_NE(task.node, 1);
    } else {
      EXPECT_EQ(task.node, task.index % 4);
    }
  }
}

TEST(MapReduceNodeFailureTest, InjectedFetchFailuresForceReExecution) {
  auto splits = WordSplits(6);
  JobConfig clean;
  auto baseline = RunWordCount(clean, splits).ValueOrDie();

  FaultInjector injector(5);
  // Map 3's output is lost at fetch epochs 0 and 1; the second
  // re-execution (epoch 2) finally serves it.
  injector.ArmSchedule(kFaultShuffleFetch, /*key=*/3, {0, 1});
  JobConfig cfg;
  cfg.num_nodes = 3;
  cfg.fault_injector = &injector;
  auto result = RunWordCount(cfg, splits).ValueOrDie();
  EXPECT_EQ(result.reducer_outputs, baseline.reducer_outputs);
  EXPECT_EQ(result.counters.Get("map_tasks_reexecuted"), 2);
  EXPECT_EQ(result.counters.Get("shuffle_fetch_corruptions"), 2);
}

TEST(MapReduceNodeFailureTest, ExceedingMaxReExecutionsFailsTheJob) {
  FaultInjector injector(5);
  // The third loss is one more than kMaxMapReexecutions allows.
  injector.ArmSchedule(kFaultShuffleFetch, /*key=*/2, {0, 1, 2});
  JobConfig cfg;
  cfg.num_nodes = 3;
  cfg.fault_injector = &injector;
  auto result = RunWordCount(cfg, WordSplits(4));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
}

TEST(MapReduceNodeFailureTest, AllNodesDeadFailsTheJob) {
  FaultInjector injector(5);
  for (int n = 0; n < 2; ++n) {
    injector.ArmSchedule(kFaultNodeCrash, n, {0});
  }
  JobConfig cfg;
  cfg.num_nodes = 2;
  cfg.fault_injector = &injector;
  auto result = RunWordCount(cfg, WordSplits(4));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
}

TEST(MapReduceNodeFailureTest, PreferredNodesPinPlacement) {
  auto splits = WordSplits(6);
  for (auto& s : splits) s.preferred_node = 2;
  JobConfig cfg;
  cfg.num_nodes = 4;
  auto result = RunWordCount(cfg, splits).ValueOrDie();
  for (const auto& task : result.tasks) {
    if (task.type == TaskRecord::Type::kMap) EXPECT_EQ(task.node, 2);
  }
}

TEST(MapReduceNodeFailureTest, DeterministicUnderNodeCrashAndFetchFaults) {
  auto splits = WordSplits(12);
  JobConfig clean;
  auto baseline = RunWordCount(clean, splits).ValueOrDie();

  auto chaos_run = [&] {
    FaultInjector injector(99);
    injector.ArmSchedule(kFaultNodeCrash, 0, {0});
    injector.ArmSchedule(kFaultShuffleFetch, 7, {0});
    JobConfig cfg;
    cfg.max_parallel_tasks = 8;
    cfg.num_nodes = 4;
    cfg.fault_injector = &injector;
    return RunWordCount(cfg, splits).ValueOrDie();
  };
  JobResult first = chaos_run();
  JobResult second = chaos_run();
  EXPECT_EQ(first.reducer_outputs, second.reducer_outputs);
  EXPECT_EQ(first.counters.values(), second.counters.values());
  EXPECT_EQ(first.reducer_outputs, baseline.reducer_outputs);
  EXPECT_GT(first.counters.Get("map_tasks_reexecuted"), 0);
}

TEST(MapReduceNodeFailureTest, NoNodeModelStillVerifiesChecksums) {
  // Default config: no node model, but checksum verification runs and
  // the partitions-verified counter reflects it.
  JobConfig cfg;
  auto result = RunWordCount(cfg, WordSplits(4)).ValueOrDie();
  EXPECT_GT(result.counters.Get("shuffle_partitions_verified"), 0);
  EXPECT_GT(result.counters.Get("shuffle_checksummed_bytes"), 0);
  EXPECT_EQ(result.counters.Get("map_tasks_reexecuted"), 0);
}

TEST(MapReduceNodeFailureTest, ValidateConfigRejectsNegativeKnobs) {
  JobConfig bad_nodes;
  bad_nodes.num_nodes = -1;
  ASSERT_FALSE(RunWordCount(bad_nodes, WordSplits(2)).ok());
}

}  // namespace
}  // namespace gesall
