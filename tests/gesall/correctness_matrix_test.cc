// The correctness matrix. The paper's accuracy study (§4.5.2, App. B.2)
// blames every difference between the parallel and the serial pipeline
// on partitioning, which holds only if no schedule, codec, retry or
// resume adds a difference of its own. Each cell runs the
// pipeline with one value of each axis (see Cell) and compares it with
// the barriered, fault-free, cold run of the same shape: the calls,
// every stage part the schedule owns byte for byte, and, in cold
// fault-free cells, the per-record counters. Each cell also checks that
// its axis values did something, so none passes vacuously. The full
// product takes minutes; the cells below cover every pair of axis
// values and every (schedule, sealed round) resume point.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gesall/pipeline.h"
#include "genome/read_simulator.h"
#include "genome/reference_generator.h"
#include "util/cancel.h"
#include "util/executor.h"
#include "util/fault_injection.h"

namespace gesall {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kChaosSeed = 2017;

// kStreamed is pipelined with rounds 1+2 fused; kStreamedBarriered fuses
// them on barrier edges; kSerial is barriered on a private one-worker
// executor with one task slot.
enum class Schedule {
  kBarriered, kPipelined, kStreamed, kStreamedBarriered, kSerial
};
// kTasks: seeded map and reduce attempt failures and a failed first
// replica read. kNodes: a corrupt replica of every block and a node
// crashed at the first heartbeat.
enum class Faults { kNone, kTasks, kNodes };
// kMemory: cancelled at a round's seal, then resumed on the same Dfs.
// kDurable: the same with a crash of a durable Dfs between the legs.
enum class Resume { kCold, kMemory, kDurable };
// kRecalSegments: recalibration plus overlapping HC segments.
enum class Shape { kStandard, kRecalSegments, kGenotyper };

struct Cell {
  Schedule schedule;
  bool codec;  // level-1 compress_shuffle plus compress_parts
  Faults faults;
  Resume resume;
  int round;  // resume cells: the PipelineRound whose seal cancels leg 1
  Shape shape;
};

bool Pipelined(Schedule s) {
  return s == Schedule::kPipelined || s == Schedule::kStreamed;
}

bool Streaming(Schedule s) {
  return s == Schedule::kStreamed || s == Schedule::kStreamedBarriered;
}

// Five cold fault-free cells (every schedule and shape, both codec
// settings), one resume cell per (schedule, sealed round) pair, then
// cells until every pair of axis values is covered.
std::vector<Cell> Cells() {
  using enum Schedule;
  using enum Faults;
  using enum Resume;
  using enum Shape;
  return {
      {kBarriered, false, kNone, kCold, 0, kStandard},
      {kBarriered, false, kNodes, kMemory, 1, kStandard},
      {kBarriered, true, kNodes, kMemory, 4, kRecalSegments},
      {kBarriered, false, kTasks, kDurable, 2, kGenotyper},
      {kBarriered, false, kTasks, kDurable, 3, kRecalSegments},
      {kBarriered, true, kTasks, kDurable, 5, kGenotyper},
      {kBarriered, true, kTasks, kDurable, 6, kStandard},
      {kPipelined, true, kNone, kCold, 0, kRecalSegments},
      {kPipelined, true, kTasks, kMemory, 3, kRecalSegments},
      {kPipelined, false, kTasks, kMemory, 5, kGenotyper},
      {kPipelined, true, kTasks, kDurable, 1, kStandard},
      {kPipelined, false, kNodes, kDurable, 2, kStandard},
      {kPipelined, true, kTasks, kDurable, 4, kRecalSegments},
      {kPipelined, true, kNone, kDurable, 6, kRecalSegments},
      {kStreamed, true, kNone, kCold, 0, kGenotyper},
      {kStreamed, true, kNodes, kMemory, 5, kStandard},
      {kStreamed, false, kTasks, kMemory, 6, kStandard},
      {kStreamed, false, kNodes, kDurable, 2, kStandard},
      {kStreamed, false, kNone, kDurable, 3, kRecalSegments},
      {kStreamed, false, kTasks, kDurable, 4, kRecalSegments},
      {kStreamedBarriered, false, kNone, kCold, 0, kStandard},
      {kStreamedBarriered, true, kTasks, kCold, 0, kGenotyper},
      {kStreamedBarriered, false, kNone, kMemory, 3, kGenotyper},
      {kStreamedBarriered, false, kTasks, kMemory, 6, kRecalSegments},
      {kStreamedBarriered, true, kNodes, kDurable, 2, kGenotyper},
      {kStreamedBarriered, true, kNone, kDurable, 4, kRecalSegments},
      {kStreamedBarriered, true, kTasks, kDurable, 5, kGenotyper},
      {kSerial, true, kNone, kCold, 0, kRecalSegments},
      {kSerial, false, kNodes, kCold, 0, kRecalSegments},
      {kSerial, false, kTasks, kMemory, 1, kStandard},
      {kSerial, true, kTasks, kMemory, 4, kRecalSegments},
      {kSerial, false, kNodes, kDurable, 2, kGenotyper},
      {kSerial, false, kNodes, kDurable, 3, kRecalSegments},
      {kSerial, true, kTasks, kDurable, 5, kGenotyper},
      {kSerial, false, kNodes, kDurable, 6, kRecalSegments},
  };
}

std::string CellName(const Cell& c) {
  static const char* kSchedule[] = {"Barriered", "Pipelined", "Streamed",
                                    "StreamedBarriered", "Serial"};
  static const char* kFault[] = {"NoFaults", "TaskFaults", "NodeFaults"};
  static const char* kResume[] = {"Cold", "ResumedAfter", "CrashedAfter"};
  static const char* kShape[] = {"Standard", "RecalSegments", "Genotyper"};
  std::ostringstream os;
  os << kSchedule[static_cast<int>(c.schedule)]
     << (c.codec ? "_Codec_" : "_Plain_")
     << kFault[static_cast<int>(c.faults)] << "_"
     << kResume[static_cast<int>(c.resume)];
  if (c.resume != Resume::kCold) os << c.round;
  os << "_" << kShape[static_cast<int>(c.shape)];
  return os.str();
}

void PrintTo(const Cell& c, std::ostream* os) { *os << CellName(c); }

using RoundHooks = std::vector<std::pair<int, std::string>>;

// One on_round_complete per round the schedule owns, in round order.
RoundHooks ExpectedHooks(Schedule schedule, Shape shape) {
  RoundHooks hooks;
  if (Streaming(schedule)) {
    hooks.emplace_back(kRoundCleaning, "round1_2_streamed");
  } else {
    hooks.emplace_back(kRoundAlignment, "round1_alignment");
    hooks.emplace_back(kRoundCleaning, "round2_cleaning");
  }
  hooks.emplace_back(kRoundMarkDuplicates, "round3_markdup_opt");
  if (shape == Shape::kRecalSegments) {
    hooks.emplace_back(kRoundRecalibration, "round3.5_print_reads");
  }
  hooks.emplace_back(kRoundSort, "round4_sort");
  hooks.emplace_back(kRoundVariants, shape == Shape::kGenotyper
                                         ? "round5_unified_genotyper"
                                         : "round5_haplotype_caller");
  return hooks;
}

std::vector<std::string> CallKeys(const std::vector<VariantRecord>& vs) {
  std::vector<std::string> keys;
  for (const auto& v : vs) {
    std::ostringstream os;
    os << v.Key() << "@" << v.qual;
    keys.push_back(os.str());
  }
  return keys;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string ManifestPath(int round) {
  return "/gesall/manifests/round-" + std::to_string(round);
}

const char* const kStageDirs[] = {"/gesall/aligned/", "/gesall/cleaned/",
                                  "/gesall/dedup/", "/gesall/recal/",
                                  "/gesall/sorted/"};

JobCounters Merged(const std::vector<RoundStats>& stats) {
  JobCounters merged;
  for (const auto& round : stats) merged.Merge(round.counters);
  return merged;
}

// Per-record counters: first the alignment and cleaning tallies of
// rounds 1-2, which the fused round reports under the same names, then
// every stage's counters but wall times, the codec's own byte counts and
// the fused round's batch tallies; with `fused`, only the stages after
// rounds 1-2.
using CounterView =
    std::vector<std::pair<std::string, std::map<std::string, int64_t>>>;

CounterView ViewCounters(const std::vector<RoundStats>& stats, bool fused) {
  CounterView view(1, {"rounds 1-2", {}});
  for (const auto& round : stats) {
    const bool early = round.name == "round1_alignment" ||
                       round.name == "round2_cleaning" ||
                       round.name == "round1_2_streamed";
    std::map<std::string, int64_t> counters;
    for (const auto& [name, value] : round.counters.values()) {
      if (early && (StartsWith(name, "align_") ||
                    StartsWith(name, "cleansam_"))) {
        view[0].second[name] += value;
      }
      if (!EndsWith(name, "_micros") && !EndsWith(name, "_compressed") &&
          !StartsWith(name, "shuffle_spill_bytes_") &&
          !StartsWith(name, "stream_") &&
          name != "shuffle_checksummed_bytes") {
        counters[name] = value;
      }
    }
    if (!early || !fused) view.emplace_back(round.name, std::move(counters));
  }
  return view;
}

struct Baseline {
  std::vector<std::string> calls;
  std::map<std::string, std::string> parts;  // stage part path -> bytes
  std::vector<RoundStats> stats;
};

class CorrectnessMatrixTest : public testing::TestWithParam<Cell> {
 protected:
  static void SetUpTestSuite() {
    ReferenceGeneratorOptions ro;
    ro.num_chromosomes = 2;
    ro.chromosome_length = 15'000;
    ref_ = new ReferenceGenome(GenerateReference(ro));
    donor_ = new DonorGenome(PlantVariants(*ref_, VariantPlanterOptions{}));
    ReadSimulatorOptions so;
    so.coverage = 6.0;
    so.duplicate_rate = 0.05;
    sample_ = new SimulatedSample(SimulateReads(*donor_, so));
    index_ = new GenomeIndex(*ref_);
    baselines_ = new std::map<Shape, Baseline>;
  }

  static void TearDownTestSuite() {
    delete baselines_;
    delete index_;
    delete sample_;
    delete donor_;
    delete ref_;
  }

  // 64 KiB blocks, so BAM splits cross DFS blocks.
  static DfsOptions DfsOptionsFor(const Cell& cell, const std::string& root) {
    DfsOptions dopt;
    dopt.block_size = 64 * 1024;
    dopt.replication = cell.faults == Faults::kNodes ? 3 : 2;
    dopt.num_data_nodes = 4;
    // Sustained injected faults must not blacklist every node mid-run.
    dopt.blacklist_threshold = 1 << 20;
    if (cell.faults == Faults::kNodes) dopt.heartbeat_miss_threshold = 1;
    dopt.compress_parts = cell.codec;
    dopt.compress_level = 1;
    dopt.durability.root_dir = root;
    return dopt;
  }

  // A 64 KiB sort buffer, so map tasks spill several runs per partition
  // that their reduces merge, and 64-pair aligner batches, so each
  // streamed map task runs several.
  static PipelineConfig ConfigFor(const Cell& cell, FaultInjector* injector,
                                  Executor* serial) {
    PipelineConfig config;
    config.alignment_partitions = 3;
    config.sort_buffer_bytes = 64 << 10;
    config.aligner.batch_size = 64;
    config.compress_shuffle = cell.codec;
    config.shuffle_compress_level = 1;
    config.pipelined = Pipelined(cell.schedule);
    config.streaming = Streaming(cell.schedule);
    if (cell.schedule == Schedule::kSerial) {
      config.executor = serial;
      config.max_parallel_tasks = 1;
    }
    if (cell.faults != Faults::kNone) config.fault_injector = injector;
    if (cell.faults == Faults::kTasks) config.max_task_attempts = 6;
    if (cell.shape == Shape::kRecalSegments) {
      config.run_recalibration = true;
      config.hc_partitioning =
          PipelineConfig::HcPartitioning::kOverlappingSegments;
    } else if (cell.shape == Shape::kGenotyper) {
      config.variant_caller = PipelineConfig::VariantCaller::kUnifiedGenotyper;
    }
    config.write_manifests = cell.resume != Resume::kCold;
    return config;
  }

  static void ArmFaults(Faults faults, FaultInjector* injector) {
    if (faults == Faults::kTasks) {
      EXPECT_TRUE(injector->ArmProbability(kFaultMapAttempt, 0.2).ok());
      EXPECT_TRUE(injector->ArmProbability(kFaultReduceAttempt, 0.2).ok());
      EXPECT_TRUE(injector->ArmFirstAttempts(kFaultDfsReadReplica, 1).ok());
    } else if (faults == Faults::kNodes) {
      // The crashed node is the one round 2's first split prefers.
      EXPECT_TRUE(injector->ArmFirstAttempts(kFaultDfsBlockCorrupt, 1).ok());
      injector->ArmSchedule(kFaultNodeCrash,
                            LogicalPartitionPlacementPolicy::PrimaryNodeFor(
                                "/gesall/aligned/part-00000.bam", 4),
                            {0});
    }
  }

  // The barriered, fault-free, cold run of `shape`, run once per suite.
  static const Baseline& BaselineFor(Shape shape) {
    auto [it, fresh] = baselines_->try_emplace(shape);
    Baseline& baseline = it->second;
    if (!fresh) return baseline;
    const Cell cold{Schedule::kBarriered, false, Faults::kNone, Resume::kCold,
                    0, shape};
    Dfs dfs(DfsOptionsFor(cold, ""));
    GesallPipeline pipeline(*ref_, *index_, &dfs,
                            ConfigFor(cold, nullptr, nullptr));
    EXPECT_TRUE(pipeline.LoadSample(sample_->mate1, sample_->mate2).ok());
    auto calls = pipeline.RunAll();
    EXPECT_TRUE(calls.ok()) << calls.status().ToString();
    if (calls.ok()) baseline.calls = CallKeys(calls.ValueOrDie());
    EXPECT_FALSE(baseline.calls.empty());
    for (const char* dir : kStageDirs) {
      for (const auto& path : dfs.List(dir)) {
        baseline.parts[path] = dfs.Read(path).ValueOrDie();
      }
    }
    baseline.stats = pipeline.stats();
    return baseline;
  }

  // Every stage part the schedule owns, byte for byte; a streamed
  // schedule writes no aligned stage.
  static void ExpectStagePartsMatch(const Dfs& dfs, const Baseline& baseline,
                                    bool streamed) {
    std::vector<std::string> paths, expected;
    for (const char* dir : kStageDirs) {
      for (auto& path : dfs.List(dir)) paths.push_back(std::move(path));
    }
    for (const auto& [path, bytes] : baseline.parts) {
      if (!streamed || !StartsWith(path, "/gesall/aligned/")) {
        expected.push_back(path);
      }
    }
    ASSERT_EQ(paths, expected);
    for (const auto& path : paths) {
      auto bytes = dfs.Read(path);
      ASSERT_TRUE(bytes.ok()) << path << ": " << bytes.status().ToString();
      EXPECT_TRUE(bytes.ValueOrDie() == baseline.parts.at(path))
          << path << " differs from the baseline";
    }
  }

  // The cell's axis values each left a trace in its legs' telemetry.
  static void ExpectAxesFired(const Cell& cell,
                              const std::vector<RoundStats>& stats,
                              const Dfs& dfs) {
    const JobCounters merged = Merged(stats);
    const DfsStats dfs_stats = dfs.stats();
    const StorageSummary storage = SummarizeStorage(merged, &dfs_stats);
    if (cell.codec) {
      EXPECT_GT(storage.shuffle_bytes_compressed, 0);
      EXPECT_LT(storage.shuffle_bytes_compressed, storage.shuffle_bytes_raw);
      EXPECT_GT(storage.shuffle_compress_micros, 0);
      EXPECT_GT(storage.dfs_bytes_compressed, 0);
      EXPECT_LT(storage.dfs_bytes_compressed, storage.dfs_bytes_raw);
    } else {
      EXPECT_EQ(storage.shuffle_bytes_compressed, 0);
      EXPECT_EQ(storage.dfs_bytes_compressed, storage.dfs_bytes_raw);
    }
    // Some shuffle round spilled more often than it ran map tasks, so a
    // reduce merged several runs of one map task.
    bool shuffled = false, multi_run = false;
    for (const auto& round : stats) {
      int64_t maps = 0;
      bool reduces = false;
      for (const TaskRecord& task : round.tasks) {
        maps += task.type == TaskRecord::Type::kMap;
        reduces |= task.type == TaskRecord::Type::kReduce;
      }
      if (!reduces) continue;
      shuffled = true;
      multi_run |= round.counters.Get("map_spills") > maps;
    }
    if (shuffled) {
      EXPECT_TRUE(multi_run) << "no shuffle round spilled twice in a map task";
    }
    const FaultToleranceSummary tasks =
        SummarizeFaultTolerance(merged, &dfs_stats);
    const NodeFailureSummary nodes = SummarizeNodeFailures(merged, &dfs_stats);
    switch (cell.faults) {
      case Faults::kNone:
        EXPECT_FALSE(tasks.any_faults_survived());
        EXPECT_FALSE(nodes.any_node_failures_survived());
        break;
      case Faults::kTasks:
        EXPECT_GT(tasks.map_task_retries, 0);
        EXPECT_GT(tasks.reduce_task_retries, 0);
        break;
      case Faults::kNodes:
        EXPECT_GT(nodes.corruptions_detected, 0);
        EXPECT_GT(nodes.nodes_declared_dead, 0);
        EXPECT_GT(nodes.map_tasks_reexecuted, 0);
        break;
    }
    if (!Streaming(cell.schedule)) return;
    // The fused round charges its alignment and cleaning to
    // program_micros, as the barriered rounds 1 and 2 do. Without the
    // codec that is most of its map tasks' time; with it, the spill
    // codec of a 64 KiB sort buffer can take half.
    for (const auto& round : stats) {
      if (round.name != "round1_2_streamed" || round.tasks.empty()) continue;
      int64_t maps = 0;
      double map_micros = 0;
      for (const TaskRecord& task : round.tasks) {
        if (task.type == TaskRecord::Type::kMap) {
          ++maps;
          map_micros += (task.end_seconds - task.start_seconds) * 1e6;
        }
      }
      const auto program =
          static_cast<double>(round.counters.Get("program_micros"));
      EXPECT_GT(program, 0);
      if (!cell.codec) {
        EXPECT_GE(program, 0.5 * map_micros);
      }
      // Map tasks ran several batches each.
      EXPECT_GT(round.counters.Get("stream_batches"), 2 * maps);
      return;
    }
    ADD_FAILURE() << "no leg ran the fused rounds 1+2";
  }

  static inline ReferenceGenome* ref_ = nullptr;
  static inline DonorGenome* donor_ = nullptr;
  static inline SimulatedSample* sample_ = nullptr;
  static inline GenomeIndex* index_ = nullptr;
  static inline std::map<Shape, Baseline>* baselines_ = nullptr;
};

TEST_P(CorrectnessMatrixTest, MatchesBarrieredBaseline) {
  const Cell& cell = GetParam();
  const Baseline& baseline = BaselineFor(cell.shape);
  const bool resumed = cell.resume != Resume::kCold;

  // The injector and the executor outlive the Dfs, which keeps raw
  // pointers to both.
  FaultInjector injector(kChaosSeed);
  ArmFaults(cell.faults, &injector);
  auto serial = cell.schedule == Schedule::kSerial
                    ? std::make_unique<Executor>(1)
                    : nullptr;
  // One durable root per process and cell: concurrent runs never share.
  const std::string root =
      cell.resume != Resume::kDurable
          ? ""
          : fs::temp_directory_path().string() + "/gesall_matrix_" +
                std::to_string(getpid()) + "_" + CellName(cell);
  if (!root.empty()) fs::remove_all(root);
  Dfs dfs(DfsOptionsFor(cell, root));

  PipelineConfig config = ConfigFor(cell, &injector, serial.get());
  std::vector<RoundStats> stats;  // every leg's rounds, in order
  if (resumed) {
    auto cancel = std::make_shared<CancelToken>();
    PipelineConfig first = config;
    first.cancel = cancel;
    first.preserve_outputs_on_cancel = true;
    RoundHooks sealed;
    first.on_round_complete = [cancel, &sealed, k = cell.round](
                                  int round, const std::string& name) {
      sealed.emplace_back(round, name);
      if (round == k) cancel->Cancel("sealed round " + std::to_string(k));
    };
    GesallPipeline pipeline(*ref_, *index_, &dfs, first);
    ASSERT_TRUE(pipeline.LoadSample(sample_->mate1, sample_->mate2).ok());
    auto calls = pipeline.RunAll();
    if (calls.ok()) {
      // Only an overlapped schedule lands later rounds before the cancel
      // reaches them; after the last round nothing is left to cancel.
      EXPECT_TRUE(Pipelined(cell.schedule) || cell.round == kRoundVariants);
      EXPECT_EQ(CallKeys(calls.ValueOrDie()), baseline.calls);
    } else {
      EXPECT_TRUE(calls.status().IsCancelled()) << calls.status().ToString();
    }
    EXPECT_TRUE(dfs.Exists(ManifestPath(cell.round)));
    if (!Pipelined(cell.schedule)) {
      ASSERT_FALSE(sealed.empty());
      EXPECT_EQ(sealed.back().first, cell.round);
    }
    stats = pipeline.stats();
    if (cell.resume == Resume::kDurable) {
      ASSERT_TRUE(dfs.SimulateCrash().ok());
    }
    config.resume = true;
  }

  RoundHooks hooks;
  config.on_round_complete = [&hooks](int round, const std::string& name) {
    hooks.emplace_back(round, name);
  };
  GesallPipeline pipeline(*ref_, *index_, &dfs, config);
  if (!resumed) {
    ASSERT_TRUE(pipeline.LoadSample(sample_->mate1, sample_->mate2).ok());
  }
  auto calls = pipeline.RunAll();
  ASSERT_TRUE(calls.ok()) << calls.status().ToString();
  stats.insert(stats.end(), pipeline.stats().begin(), pipeline.stats().end());

  EXPECT_EQ(CallKeys(calls.ValueOrDie()), baseline.calls);
  ExpectStagePartsMatch(dfs, baseline, Streaming(cell.schedule));
  const ExecutionSummary& ex = pipeline.SummarizeExecution();
  EXPECT_EQ(ex.pipelined, Pipelined(cell.schedule));
  EXPECT_EQ(ex.streaming, Streaming(cell.schedule));
  // One hook per round, run or skipped on resume.
  EXPECT_EQ(hooks, ExpectedHooks(cell.schedule, cell.shape));
  if (resumed) {
    const JobCounters counters = Merged(pipeline.stats());
    EXPECT_GE(counters.Get("round_skipped_on_resume"), 1);
    EXPECT_EQ(counters.Get("align_kernel_calls"), 0);
    for (const auto& [round, name] : hooks) {
      EXPECT_TRUE(dfs.Exists(ManifestPath(round))) << name;
    }
    EXPECT_TRUE(dfs.Exists("/gesall/variants/calls.bin"));
  } else if (cell.faults == Faults::kNone) {
    const bool fused = Streaming(cell.schedule);
    EXPECT_EQ(ViewCounters(stats, fused), ViewCounters(baseline.stats, fused));
  }
  ExpectAxesFired(cell, stats, dfs);
  if (!root.empty()) fs::remove_all(root);
}

INSTANTIATE_TEST_SUITE_P(Cells, CorrectnessMatrixTest,
                         testing::ValuesIn(Cells()),
                         [](const testing::TestParamInfo<Cell>& info) {
                           return CellName(info.param);
                         });

// Each resume cell cancels at a round its schedule and shape seal, and
// the cells cover every pair of axis values and every (schedule, sealed
// round) resume point.
TEST(CorrectnessMatrixCells, CoverEveryPairAndResumePoint) {
  const std::array<int, 5> sizes = {5, 2, 3, 3, 3};
  std::set<std::array<int, 4>> pairs;
  std::set<std::pair<Schedule, int>> resume_points;
  for (const Cell& c : Cells()) {
    const std::array<int, 5> v = {
        static_cast<int>(c.schedule), c.codec, static_cast<int>(c.faults),
        static_cast<int>(c.resume), static_cast<int>(c.shape)};
    for (int i = 0; i < 5; ++i) {
      for (int j = i + 1; j < 5; ++j) pairs.insert({i, v[i], j, v[j]});
    }
    if (c.resume == Resume::kCold) continue;
    resume_points.insert({c.schedule, c.round});
    const RoundHooks sealed = ExpectedHooks(c.schedule, c.shape);
    EXPECT_TRUE(std::any_of(sealed.begin(), sealed.end(), [&](auto& hook) {
      return hook.first == c.round;
    })) << CellName(c);
  }
  size_t all_pairs = 0;
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) all_pairs += sizes[i] * sizes[j];
  }
  EXPECT_EQ(pairs.size(), all_pairs);
  for (int s = 0; s < sizes[0]; ++s) {
    const auto schedule = static_cast<Schedule>(s);
    for (Shape shape : {Shape::kStandard, Shape::kRecalSegments}) {
      for (const auto& [round, name] : ExpectedHooks(schedule, shape)) {
        EXPECT_TRUE(resume_points.count({schedule, round}))
            << "no cell resumes schedule " << s << " after " << name;
      }
    }
  }
}

}  // namespace
}  // namespace gesall
