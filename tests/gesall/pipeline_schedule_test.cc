// One stage table, scheduled four ways. Barriered, pipelined, streamed
// and streamed-without-pipelining runs must each seal every round they
// own (a manifest plus variants/calls.bin), fire on_round_complete once
// per round, record the same stats names in the same order, and say
// which schedule ran in their execution telemetry. Resuming after every
// sealed round is covered by correctness_matrix_test.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gesall/pipeline.h"
#include "genome/read_simulator.h"
#include "genome/reference_generator.h"
#include "util/io.h"

namespace gesall {
namespace {

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

struct Schedule {
  const char* name;
  bool pipelined;
  bool streaming;
};

void PrintTo(const Schedule& s, std::ostream* os) { *os << s.name; }

using RoundHooks = std::vector<std::pair<int, std::string>>;

class PipelineScheduleTest : public testing::TestWithParam<Schedule> {
 protected:
  static void SetUpTestSuite() {
    ReferenceGeneratorOptions ro;
    ro.num_chromosomes = 2;
    ro.chromosome_length = 15'000;
    ref_ = new ReferenceGenome(GenerateReference(ro));
    donor_ = new DonorGenome(PlantVariants(*ref_, VariantPlanterOptions{}));
    ReadSimulatorOptions so;
    so.coverage = 5.0;
    sample_ = new SimulatedSample(SimulateReads(*donor_, so));
    index_ = new GenomeIndex(*ref_);

    // Barriered run without manifests: the calls every
    // schedule must reproduce.
    Dfs dfs(DfsOptions{});
    PipelineConfig config;
    config.alignment_partitions = 2;
    config.max_parallel_tasks = 2;
    GesallPipeline baseline(*ref_, *index_, &dfs, config);
    ASSERT_TRUE(baseline.LoadSample(sample_->mate1, sample_->mate2).ok());
    auto variants = baseline.RunAll();
    ASSERT_TRUE(variants.ok()) << variants.status().ToString();
    baseline_ = new std::vector<VariantRecord>(variants.MoveValueUnsafe());
  }
  static void TearDownTestSuite() {
    delete baseline_;
    delete index_;
    delete sample_;
    delete donor_;
    delete ref_;
  }

  static PipelineConfig Config(RoundHooks* hooks) {
    PipelineConfig config;
    config.alignment_partitions = 2;
    config.max_parallel_tasks = 2;
    config.pipelined = GetParam().pipelined;
    config.streaming = GetParam().streaming;
    config.write_manifests = true;
    config.on_round_complete = [hooks](int round, const std::string& name) {
      hooks->emplace_back(round, name);
    };
    return config;
  }

  // One hook per round the schedule owns, in round order.
  static RoundHooks ExpectedHooks() {
    RoundHooks hooks;
    if (GetParam().streaming) {
      hooks.emplace_back(kRoundCleaning, "round1_2_streamed");
    } else {
      hooks.emplace_back(kRoundAlignment, "round1_alignment");
      hooks.emplace_back(kRoundCleaning, "round2_cleaning");
    }
    hooks.emplace_back(kRoundMarkDuplicates, "round3_markdup_opt");
    hooks.emplace_back(kRoundSort, "round4_sort");
    hooks.emplace_back(kRoundVariants, "round5_haplotype_caller");
    return hooks;
  }

  // Every sealed round's manifest, and round 5's persisted calls.
  static void ExpectSealed(const Dfs& dfs) {
    std::vector<std::string> expected;
    for (const auto& [round, name] : ExpectedHooks()) {
      expected.push_back("/gesall/manifests/round-" + std::to_string(round));
      // The manifest records the name of the round's sealing stage.
      auto raw = dfs.Read(expected.back());
      ASSERT_TRUE(raw.ok()) << expected.back();
      BufferReader reader(raw.ValueOrDie());
      std::string sealed_name;
      ASSERT_TRUE(reader.GetString(&sealed_name).ok());
      EXPECT_EQ(sealed_name, name);
    }
    EXPECT_EQ(dfs.List("/gesall/manifests/"), expected);
    EXPECT_TRUE(dfs.Exists("/gesall/variants/calls.bin"));
  }

  static ReferenceGenome* ref_;
  static DonorGenome* donor_;
  static SimulatedSample* sample_;
  static GenomeIndex* index_;
  static std::vector<VariantRecord>* baseline_;
};

ReferenceGenome* PipelineScheduleTest::ref_ = nullptr;
DonorGenome* PipelineScheduleTest::donor_ = nullptr;
SimulatedSample* PipelineScheduleTest::sample_ = nullptr;
GenomeIndex* PipelineScheduleTest::index_ = nullptr;
std::vector<VariantRecord>* PipelineScheduleTest::baseline_ = nullptr;

TEST_P(PipelineScheduleTest, SealsEveryRoundOnce) {
  Dfs dfs(DfsOptions{});
  RoundHooks hooks;
  GesallPipeline pipeline(*ref_, *index_, &dfs, Config(&hooks));
  ASSERT_TRUE(pipeline.LoadSample(sample_->mate1, sample_->mate2).ok());
  auto variants = pipeline.RunAll();
  ASSERT_TRUE(variants.ok()) << variants.status().ToString();
  EXPECT_EQ(VariantKeys(variants.ValueOrDie()), VariantKeys(*baseline_));

  EXPECT_EQ(hooks, ExpectedHooks());
  ExpectSealed(dfs);
  EXPECT_EQ(dfs.List("/gesall/aligned/").empty(), GetParam().streaming);

  // stats(): one entry per stage, in table order, in every schedule.
  std::vector<std::string> names;
  for (const auto& round : pipeline.stats()) names.push_back(round.name);
  std::vector<std::string> expected;
  if (GetParam().streaming) {
    expected = {"round1_2_streamed"};
  } else {
    expected = {"round1_alignment", "round2_cleaning"};
  }
  for (const char* name : {"round3_bloom_preround", "round3_markdup_opt",
                           "round4_sort", "round5_haplotype_caller"}) {
    expected.push_back(name);
  }
  EXPECT_EQ(names, expected);

  const ExecutionSummary& ex = pipeline.SummarizeExecution();
  EXPECT_EQ(ex.pipelined, GetParam().pipelined);
  EXPECT_EQ(ex.streaming, GetParam().streaming);
  EXPECT_GT(ex.tasks_executed, 0);
  EXPECT_GT(ex.wall_seconds, 0.0);
  EXPECT_GT(ex.peak_rss_bytes, 0);
  if (GetParam().pipelined) {
    // Serialized time sums the round spans; with overlap it can only be
    // >= the observed wall clock.
    EXPECT_GE(ex.serialized_round_seconds, ex.wall_seconds - 1e-9);
  }
  ASSERT_EQ(ex.rounds.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(ex.rounds[i].name, expected[i]);
  }

  // The edges. Round 3 always starts after the bloom merge. Overlapped
  // runs start the bloom pre-round before round 2 lands and rounds 4
  // and 5 before round 3 lands; barriered ones run stage after stage.
  const size_t clean = GetParam().streaming ? 0 : 1;
  const RoundSpan& bloom = ex.rounds[clean + 1];
  const RoundSpan& markdup = ex.rounds[clean + 2];
  EXPECT_GE(markdup.start_seconds, bloom.end_seconds);
  if (GetParam().pipelined) {
    EXPECT_LT(bloom.start_seconds, ex.rounds[clean].end_seconds);
    EXPECT_LT(ex.rounds[clean + 3].start_seconds, markdup.end_seconds);
    EXPECT_LT(ex.rounds[clean + 4].start_seconds, markdup.end_seconds);
  } else {
    for (size_t i = 1; i < ex.rounds.size(); ++i) {
      EXPECT_GE(ex.rounds[i].start_seconds, ex.rounds[i - 1].end_seconds)
          << ex.rounds[i].name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, PipelineScheduleTest,
    testing::Values(Schedule{"Barriered", false, false},
                    Schedule{"Pipelined", true, false},
                    Schedule{"Streamed", true, true},
                    Schedule{"StreamedBarriered", false, true}),
    [](const testing::TestParamInfo<Schedule>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace gesall
