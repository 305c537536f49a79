// Fault-tolerance behavior of the MapReduce engine: task-attempt retries,
// deterministic output under injected faults, and the JobConfig/
// partitioner hardening.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "mr/mapreduce.h"
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

TEST(MapReduceFaultTest, RetriedMapTaskSucceeds) {
  FaultInjector injector(1);
  // Every map task fails its first attempt; the retry succeeds.
  ASSERT_TRUE(injector.ArmFirstAttempts(kFaultMapAttempt, 1).ok());
  JobConfig cfg;
  cfg.max_task_attempts = 2;
  cfg.fault_injector = &injector;
  auto splits = WordSplits(6);
  auto result = RunWordCount(cfg, splits).ValueOrDie();
  EXPECT_EQ(result.counters.Get("map_task_retries"), 6);
  EXPECT_EQ(result.counters.Get("reduce_task_retries"), 0);
  // Failed attempts leave no counter residue: every emitted record still
  // reaches exactly one reducer.
  EXPECT_EQ(result.counters.Get("map_output_records"),
            result.counters.Get("reduce_shuffle_records"));
  for (const auto& task : result.tasks) {
    if (task.type == TaskRecord::Type::kMap) {
      EXPECT_EQ(task.attempt, 1);
    }
  }
}

TEST(MapReduceFaultTest, DeterministicUnderProbabilisticFaults) {
  auto splits = WordSplits(16);
  // Fault-free baseline.
  JobConfig clean;
  clean.max_parallel_tasks = 8;
  auto baseline = RunWordCount(clean, splits).ValueOrDie();

  auto chaos_run = [&] {
    FaultInjector injector(2024);
    EXPECT_TRUE(injector.ArmProbability(kFaultMapAttempt, 0.3).ok());
    EXPECT_TRUE(injector.ArmProbability(kFaultReduceAttempt, 0.3).ok());
    JobConfig cfg;
    cfg.max_parallel_tasks = 8;
    cfg.max_task_attempts = 8;
    cfg.fault_injector = &injector;
    return RunWordCount(cfg, splits).ValueOrDie();
  };
  JobResult first = chaos_run();
  JobResult second = chaos_run();
  // Same fault seed + input => byte-identical output and stable counters.
  EXPECT_EQ(first.reducer_outputs, second.reducer_outputs);
  EXPECT_EQ(first.counters.values(), second.counters.values());
  // And the output matches the fault-free run: retries are invisible.
  EXPECT_EQ(first.reducer_outputs, baseline.reducer_outputs);
  EXPECT_GT(first.counters.Get("map_task_retries") +
                first.counters.Get("reduce_task_retries"),
            0);
}

TEST(MapReduceFaultTest, SplitLoadFaultsAreRetried) {
  FaultInjector injector(1);
  injector.ArmSchedule(kFaultSplitLoad, /*key=*/2, {0});
  JobConfig cfg;
  cfg.fault_injector = &injector;
  auto result = RunWordCount(cfg, WordSplits(4)).ValueOrDie();
  EXPECT_EQ(result.counters.Get("map_task_retries"), 1);
  EXPECT_EQ(injector.fires(kFaultSplitLoad), 1);
}

TEST(MapReduceFaultTest, ExhaustedAttemptsFailTheJob) {
  FaultInjector injector(1);
  injector.ArmSchedule(kFaultMapAttempt, /*key=*/1, {0, 1, 2});
  JobConfig cfg;
  cfg.max_task_attempts = 3;
  cfg.fault_injector = &injector;
  auto result = RunWordCount(cfg, WordSplits(4));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
}

TEST(MapReduceFaultTest, ReduceRetriesReproduceTheSameOutput) {
  auto splits = WordSplits(8);
  JobConfig clean;
  auto baseline = RunWordCount(clean, splits).ValueOrDie();

  FaultInjector injector(1);
  injector.ArmSchedule(kFaultReduceAttempt, /*key=*/0, {0});
  injector.ArmSchedule(kFaultReduceAttempt, /*key=*/3, {0});
  JobConfig cfg;
  cfg.fault_injector = &injector;
  auto result = RunWordCount(cfg, splits).ValueOrDie();
  EXPECT_EQ(result.counters.Get("reduce_task_retries"), 2);
  EXPECT_EQ(result.reducer_outputs, baseline.reducer_outputs);
}

TEST(MapReduceFaultTest, RetryMachineryIdleWithoutInjector) {
  JobConfig cfg;
  cfg.max_task_attempts = 4;
  auto result = RunWordCount(cfg, WordSplits(6)).ValueOrDie();
  EXPECT_EQ(result.counters.Get("map_task_retries"), 0);
  EXPECT_EQ(result.counters.Get("reduce_task_retries"), 0);
  for (const auto& task : result.tasks) {
    EXPECT_EQ(task.attempt, 0);
  }
}

TEST(MapReduceFaultTest, JobConfigValidation) {
  std::vector<InputSplit> splits = {InlineSplit("a")};
  auto mapper = [] { return std::make_unique<WordCountMapper>(); };
  auto reducer = [] { return std::make_unique<SumReducer>(); };

  JobConfig bad_reducers;
  bad_reducers.num_reducers = 0;
  EXPECT_TRUE(MapReduceJob(bad_reducers)
                  .Run(splits, mapper, reducer)
                  .status()
                  .IsInvalidArgument());
  // Map-only jobs do not need reducers.
  EXPECT_TRUE(MapReduceJob(bad_reducers).RunMapOnly(splits, mapper).ok());

  JobConfig bad_parallel;
  bad_parallel.max_parallel_tasks = 0;
  EXPECT_TRUE(MapReduceJob(bad_parallel)
                  .RunMapOnly(splits, mapper)
                  .status()
                  .IsInvalidArgument());

  JobConfig bad_attempts;
  bad_attempts.max_task_attempts = 0;
  EXPECT_TRUE(MapReduceJob(bad_attempts)
                  .RunMapOnly(splits, mapper)
                  .status()
                  .IsInvalidArgument());
}

TEST(MapReduceFaultTest, PartitionersHandleDegeneratePartitionCounts) {
  HashPartitioner hash;
  EXPECT_EQ(hash.Partition("anything", 0), 0);
  EXPECT_EQ(hash.Partition("anything", -3), 0);
  EXPECT_EQ(hash.Partition("anything", 1), 0);
  RangePartitioner range({"m"});
  EXPECT_EQ(range.Partition("a", 0), 0);
  EXPECT_EQ(range.Partition("z", -1), 0);
}

TEST(MapReduceFaultTest, TaskRecordsReportOutputBytes) {
  auto splits = WordSplits(3);
  JobConfig cfg;
  auto result = RunWordCount(cfg, splits).ValueOrDie();
  int64_t map_bytes = 0, reduce_bytes = 0;
  for (const auto& task : result.tasks) {
    if (task.type == TaskRecord::Type::kMap) {
      EXPECT_GT(task.output_bytes, 0);
      map_bytes += task.output_bytes;
    } else {
      reduce_bytes += task.output_bytes;
    }
  }
  EXPECT_EQ(map_bytes, result.counters.Get("map_output_bytes"));
  EXPECT_EQ(reduce_bytes, result.counters.Get("reduce_output_bytes"));
  EXPECT_GT(reduce_bytes, 0);

  // Map-only rounds report output bytes too.
  MapReduceJob map_only(cfg);
  auto mo = map_only.RunMapOnly(splits, [] {
                      return std::make_unique<WordCountMapper>();
                    }).ValueOrDie();
  for (const auto& task : mo.tasks) EXPECT_GT(task.output_bytes, 0);
}

}  // namespace
}  // namespace gesall
