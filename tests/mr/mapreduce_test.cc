#include "mr/mapreduce.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

namespace gesall {
namespace {

// Word-count mapper/reducer used by several tests.
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

std::map<std::string, int> CollectCounts(const JobResult& result) {
  std::map<std::string, int> counts;
  for (const auto& out : result.reducer_outputs) {
    for (const auto& v : out) {
      auto colon = v.rfind(':');
      counts[v.substr(0, colon)] = std::stoi(v.substr(colon + 1));
    }
  }
  return counts;
}

TEST(MapReduceTest, WordCount) {
  MapReduceJob job;
  std::vector<InputSplit> splits = {
      InlineSplit("a b a"),
      InlineSplit("b c"),
      InlineSplit("a"),
  };
  auto result = job.Run(
                       splits, [] { return std::make_unique<WordCountMapper>(); },
                       [] { return std::make_unique<SumReducer>(); })
                    .ValueOrDie();
  auto counts = CollectCounts(result);
  EXPECT_EQ(counts["a"], 3);
  EXPECT_EQ(counts["b"], 2);
  EXPECT_EQ(counts["c"], 1);
}

TEST(MapReduceTest, CountersTrackRecords) {
  MapReduceJob job;
  std::vector<InputSplit> splits = {InlineSplit("x y z x")};
  auto result = job.Run(
                       splits, [] { return std::make_unique<WordCountMapper>(); },
                       [] { return std::make_unique<SumReducer>(); })
                    .ValueOrDie();
  EXPECT_EQ(result.counters.Get("map_output_records"), 4);
  EXPECT_EQ(result.counters.Get("reduce_shuffle_records"), 4);
  EXPECT_EQ(result.counters.Get("reduce_output_records"), 3);
}

TEST(MapReduceTest, DeterministicAcrossRuns) {
  std::vector<InputSplit> splits;
  for (int i = 0; i < 16; ++i) {
    splits.push_back(InlineSplit("k" + std::to_string(i % 5) + " common"));
  }
  JobConfig cfg;
  cfg.max_parallel_tasks = 8;
  auto run = [&] {
    MapReduceJob job(cfg);
    return job.Run(
                  splits, [] { return std::make_unique<WordCountMapper>(); },
                  [] { return std::make_unique<SumReducer>(); })
        .ValueOrDie()
        .reducer_outputs;
  };
  EXPECT_EQ(run(), run());
}

TEST(MapReduceTest, ValuesArriveInMapTaskOrder) {
  // Values for one key must arrive ordered by (map task, emission order).
  class TagMapper : public Mapper {
   public:
    Status Map(const std::string& input, MapContext* ctx) override {
      ctx->Emit("k", input);
      return Status::OK();
    }
  };
  class ConcatReducer : public Reducer {
   public:
    Status Reduce(const std::string& key,
                  const std::vector<std::string>& values,
                  ReduceContext* ctx) override {
      std::string all;
      for (const auto& v : values) all += v;
      ctx->Emit(key + "=" + all);
      return Status::OK();
    }
  };
  MapReduceJob job;
  std::vector<InputSplit> splits = {InlineSplit("1"), InlineSplit("2"),
                                    InlineSplit("3"), InlineSplit("4")};
  auto result = job.Run(
                       splits, [] { return std::make_unique<TagMapper>(); },
                       [] { return std::make_unique<ConcatReducer>(); })
                    .ValueOrDie();
  std::string found;
  for (const auto& out : result.reducer_outputs) {
    for (const auto& v : out) found = v;
  }
  EXPECT_EQ(found, "k=1234");
}

TEST(MapReduceTest, SpillsWhenBufferSmall) {
  JobConfig cfg;
  cfg.sort_buffer_bytes = 64;  // force many spills
  MapReduceJob job(cfg);
  std::string big_input;
  for (int i = 0; i < 200; ++i) big_input += "w" + std::to_string(i) + " ";
  auto result = job.Run(
                       {InlineSplit(big_input)},
                       [] { return std::make_unique<WordCountMapper>(); },
                       [] { return std::make_unique<SumReducer>(); })
                    .ValueOrDie();
  EXPECT_GT(result.counters.Get("map_spills"), 1);
  // Spilling must not change results.
  auto counts = CollectCounts(result);
  EXPECT_EQ(static_cast<int>(counts.size()), 200);
}

TEST(MapReduceTest, MapErrorPropagates) {
  class FailingMapper : public Mapper {
   public:
    Status Map(const std::string&, MapContext*) override {
      return Status::Internal("mapper exploded");
    }
  };
  MapReduceJob job;
  auto result = job.Run(
      {InlineSplit("x")}, [] { return std::make_unique<FailingMapper>(); },
      [] { return std::make_unique<SumReducer>(); });
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(MapReduceTest, ReduceErrorPropagates) {
  class FailingReducer : public Reducer {
   public:
    Status Reduce(const std::string&, const std::vector<std::string>&,
                  ReduceContext*) override {
      return Status::Internal("reducer exploded");
    }
  };
  MapReduceJob job;
  auto result = job.Run(
      {InlineSplit("x")}, [] { return std::make_unique<WordCountMapper>(); },
      [] { return std::make_unique<FailingReducer>(); });
  EXPECT_FALSE(result.ok());
}

TEST(MapReduceTest, SplitLoadErrorPropagates) {
  MapReduceJob job;
  InputSplit bad;
  bad.load = []() -> Result<std::string> {
    return Status::IOError("split gone");
  };
  auto result =
      job.Run({bad}, [] { return std::make_unique<WordCountMapper>(); },
              [] { return std::make_unique<SumReducer>(); });
  EXPECT_TRUE(result.status().IsIOError());
}

TEST(MapReduceTest, MapOnlyKeepsPerTaskOutputs) {
  class EchoMapper : public Mapper {
   public:
    Status Map(const std::string& input, MapContext* ctx) override {
      ctx->Emit("", input + "!");
      return Status::OK();
    }
  };
  MapReduceJob job;
  auto result = job.RunMapOnly(
                       {InlineSplit("a"), InlineSplit("b")},
                       [] { return std::make_unique<EchoMapper>(); })
                    .ValueOrDie();
  ASSERT_EQ(result.reducer_outputs.size(), 2u);
  EXPECT_EQ(result.reducer_outputs[0], (std::vector<std::string>{"a!"}));
  EXPECT_EQ(result.reducer_outputs[1], (std::vector<std::string>{"b!"}));
}

// Map-only tasks that emit keyed values, as the bloom pre-round (key
// "bloom") and the covariate job (key "table") do: keys are dropped, and
// output bytes count the kept values alone.
TEST(MapReduceTest, MapOnlyKeyedEmitsCountValueBytes) {
  class KeyedMapper : public Mapper {
   public:
    Status Map(const std::string& input, MapContext* ctx) override {
      ctx->Emit("table", input);
      ctx->EmitView("bloom", input + input);
      return Status::OK();
    }
  };
  MapReduceJob job;
  auto result = job.RunMapOnly(
                       {InlineSplit("abc"), InlineSplit("de")},
                       [] { return std::make_unique<KeyedMapper>(); })
                    .ValueOrDie();
  ASSERT_EQ(result.reducer_outputs.size(), 2u);
  EXPECT_EQ(result.reducer_outputs[0],
            (std::vector<std::string>{"abc", "abcabc"}));
  EXPECT_EQ(result.reducer_outputs[1],
            (std::vector<std::string>{"de", "dede"}));
  EXPECT_EQ(result.counters.Get("map_output_records"), 4);
  EXPECT_EQ(result.counters.Get("map_output_bytes"), 3 + 6 + 2 + 4);
  ASSERT_EQ(result.tasks.size(), 2u);
  for (const auto& task : result.tasks) {
    EXPECT_EQ(task.type, TaskRecord::Type::kMap);
    const int64_t size = task.index == 0 ? 3 : 2;
    EXPECT_EQ(task.input_bytes, size);
    EXPECT_EQ(task.output_bytes, 3 * size);
  }
}

TEST(MapReduceTest, TaskTimelineRecorded) {
  MapReduceJob job;
  auto result = job.Run(
                       {InlineSplit("a b"), InlineSplit("c")},
                       [] { return std::make_unique<WordCountMapper>(); },
                       [] { return std::make_unique<SumReducer>(); })
                    .ValueOrDie();
  int maps = 0, reduces = 0;
  for (const auto& t : result.tasks) {
    EXPECT_GE(t.end_seconds, t.start_seconds);
    if (t.type == TaskRecord::Type::kMap) {
      ++maps;
    } else {
      ++reduces;
    }
  }
  EXPECT_EQ(maps, 2);
  EXPECT_EQ(reduces, 4);  // default num_reducers
}

TEST(HashPartitionerTest, StableAndInRange) {
  HashPartitioner p;
  for (int i = 0; i < 100; ++i) {
    std::string key = "key" + std::to_string(i);
    int part = p.Partition(key, 7);
    EXPECT_GE(part, 0);
    EXPECT_LT(part, 7);
    EXPECT_EQ(part, p.Partition(key, 7));
  }
}

TEST(RangePartitionerTest, BoundariesRespected) {
  RangePartitioner p({"g", "n"});  // [<g], [g..n), [>=n]
  EXPECT_EQ(p.Partition("a", 3), 0);
  EXPECT_EQ(p.Partition("g", 3), 1);
  EXPECT_EQ(p.Partition("m", 3), 1);
  EXPECT_EQ(p.Partition("n", 3), 2);
  EXPECT_EQ(p.Partition("z", 3), 2);
}

TEST(RangePartitionerTest, ClampsToNumPartitions) {
  RangePartitioner p({"b", "c", "d"});
  EXPECT_EQ(p.Partition("z", 2), 1);
}

// Regression guard for the per-phase pool churn: a job run must execute
// entirely on the shared persistent executor — zero Executor
// constructions per run (the old engine built four pools per job).
TEST(MapReduceTest, OneSharedExecutorPerJobRun) {
  Executor::Shared();  // force the singleton into existence first
  const int64_t before = Executor::instances_created();
  MapReduceJob job;
  auto result = job.Run(
                       {InlineSplit("a b a"), InlineSplit("b c")},
                       [] { return std::make_unique<WordCountMapper>(); },
                       [] { return std::make_unique<SumReducer>(); })
                    .ValueOrDie();
  EXPECT_EQ(result.counters.Get("map_output_records"), 5);
  EXPECT_EQ(Executor::instances_created(), before);
  auto map_only =
      job.RunMapOnly({InlineSplit("x")},
                     [] { return std::make_unique<WordCountMapper>(); })
          .ValueOrDie();
  EXPECT_EQ(map_only.reducer_outputs.size(), 1u);
  EXPECT_EQ(Executor::instances_created(), before);
}

TEST(MapReduceTest, StartReturnsSameResultAsRun) {
  std::vector<InputSplit> splits = {InlineSplit("a b a"),
                                    InlineSplit("b c")};
  auto mapper = [] { return std::make_unique<WordCountMapper>(); };
  auto reducer = [] { return std::make_unique<SumReducer>(); };
  MapReduceJob job;
  auto sync = job.Run(splits, mapper, reducer).ValueOrDie();
  auto handle = job.Start(splits, mapper, reducer);
  auto async = handle.Wait().ValueOrDie();
  EXPECT_EQ(async.reducer_outputs, sync.reducer_outputs);
  EXPECT_EQ(async.counters.values(), sync.counters.values());
}

TEST(MapReduceTest, HandleWaitIsSingleConsume) {
  MapReduceJob job;
  auto handle =
      job.StartMapOnly({InlineSplit("a")}, [] {
        return std::make_unique<WordCountMapper>();
      });
  EXPECT_TRUE(handle.Wait().ok());
  EXPECT_FALSE(handle.Wait().ok());
}

// A gated split must not run (nor hold a task slot) until its
// ReadySignal fires; the job completes only after every gate opens.
TEST(MapReduceTest, GatedSplitWaitsForReadySignal) {
  std::atomic<bool> gate_open{false};
  std::atomic<bool> gated_ran{false};
  auto gate = std::make_shared<ReadySignal>();
  InputSplit gated;
  gated.load = [&]() -> Result<std::string> {
    gated_ran = true;
    EXPECT_TRUE(gate_open.load());  // must not load before Notify
    return std::string("late");
  };
  gated.ready = gate;
  MapReduceJob job;
  auto handle = job.StartMapOnly(
      {InlineSplit("early"), gated},
      [] { return std::make_unique<WordCountMapper>(); });
  // Give the ungated split ample time to run; the gated one must not.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(gated_ran.load());
  gate_open = true;
  gate->Notify();
  auto result = handle.Wait().ValueOrDie();
  EXPECT_TRUE(gated_ran.load());
  ASSERT_EQ(result.reducer_outputs.size(), 2u);
  // WordCountMapper emits one "1" per word of the gated split.
  EXPECT_EQ(result.reducer_outputs[1], (std::vector<std::string>{"1"}));
}

// on_partition_output must fire once per reduce partition with that
// partition's final values, before the job-level barrier; values handed
// over are not returned again.
TEST(MapReduceTest, PartitionOutputCallbackFiresPerReducer) {
  const std::vector<InputSplit> splits = {InlineSplit("a b c d e f"),
                                          InlineSplit("a c e")};
  auto mapper = [] { return std::make_unique<WordCountMapper>(); };
  auto reducer = [] { return std::make_unique<SumReducer>(); };
  JobConfig config;
  config.num_reducers = 3;
  const JobResult expected =
      MapReduceJob(config).Run(splits, mapper, reducer).ValueOrDie();
  std::mutex mu;
  std::map<int, std::vector<std::string>> seen;
  config.on_partition_output =
      [&](int partition, const std::vector<std::string>& values,
          const JobCounters& counters) {
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_EQ(seen.count(partition), 0u);  // once per partition
        seen[partition] = values;
        EXPECT_EQ(counters.Get("reduce_output_records"),
                  static_cast<int64_t>(values.size()));
      };
  auto result = MapReduceJob(config).Run(splits, mapper, reducer).ValueOrDie();
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(seen.size(), 3u);
  ASSERT_EQ(result.reducer_outputs.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(seen[r], expected.reducer_outputs[r]) << "partition " << r;
    EXPECT_TRUE(result.reducer_outputs[r].empty()) << "partition " << r;
  }
}

// A map-only job hands each map task's values to on_partition_output
// once, on that task's worker, before Wait() returns, and charges the
// hand-over to partition_output_micros; the result carries no values.
TEST(MapReduceTest, PartitionOutputCallbackFiresPerMapOnlyTask) {
  class EchoMapper : public Mapper {
   public:
    Status Map(const std::string& input, MapContext* ctx) override {
      std::istringstream in(input);
      std::string word;
      while (in >> word) ctx->Emit("", word);
      return Status::OK();
    }
  };
  JobConfig config;
  std::mutex mu;
  std::map<int, std::vector<std::string>> seen;
  config.on_partition_output =
      [&](int partition, const std::vector<std::string>& values,
          const JobCounters& counters) {
        // Long enough that the hand-over's time cannot round to zero.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_EQ(seen.count(partition), 0u);  // once per map task
        seen[partition] = values;
        EXPECT_EQ(counters.Get("map_output_records"),
                  static_cast<int64_t>(values.size()));
      };
  MapReduceJob job(config);
  auto handle =
      job.StartMapOnly({InlineSplit("a b"), InlineSplit("c"), InlineSplit("")},
                       [] { return std::make_unique<EchoMapper>(); });
  auto result = handle.Wait().ValueOrDie();
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(seen.size(), 3u);  // every hand-over ran before Wait()
  EXPECT_EQ(seen[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(seen[1], (std::vector<std::string>{"c"}));
  EXPECT_TRUE(seen[2].empty());
  ASSERT_EQ(result.reducer_outputs.size(), 3u);
  for (const auto& out : result.reducer_outputs) EXPECT_TRUE(out.empty());
  // Three hand-overs of at least 1 ms each, less float truncation.
  EXPECT_GE(result.counters.Get(kPartitionOutputMicros), 2900);
}

}  // namespace
}  // namespace gesall
