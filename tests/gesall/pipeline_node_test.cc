// Fused align+clean loop tests: RunAlignCleanStream (pipeline_node.h)
// must produce records bit-identical to the monolithic barriered path,
// hand batches to the sink in order, and stop cleanly on mid-stream
// cancellation or sink errors. Whole streamed pipelines are compared
// with the barriered engine in correctness_matrix_test.

#include "gesall/pipeline_node.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "analysis/steps.h"
#include "genome/read_simulator.h"
#include "genome/reference_generator.h"

namespace gesall {
namespace {

class PipelineNodeTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    ReferenceGeneratorOptions ro;
    ro.num_chromosomes = 2;
    ro.chromosome_length = 20'000;
    ref_ = new ReferenceGenome(GenerateReference(ro));
    donor_ = new DonorGenome(PlantVariants(*ref_, VariantPlanterOptions{}));
    ReadSimulatorOptions so;
    so.coverage = 4.0;
    sample_ = new SimulatedSample(SimulateReads(*donor_, so));
    index_ = new GenomeIndex(*ref_);
    interleaved_ = new std::vector<FastqRecord>(
        InterleavePairs(sample_->mate1, sample_->mate2).ValueOrDie());
  }

  static void TearDownTestSuite() {
    delete interleaved_;
    delete index_;
    delete sample_;
    delete donor_;
    delete ref_;
  }

  // Small batches so the loop hands many batches to the sink instead of
  // one monolithic one.
  static PairedAlignerOptions SmallBatches() {
    PairedAlignerOptions opt;
    opt.batch_size = 8;
    return opt;
  }

  static std::vector<SamRecord> CollectStream(
      const AlignCleanStreamOptions& opts, const PairedAlignerOptions& aopt,
      AlignCleanStreamStats* stats, Status* status) {
    std::vector<SamRecord> out;
    std::vector<int64_t> batch_order;
    *status = RunAlignCleanStream(
        *index_, aopt, *interleaved_, opts,
        [&](RecordBatch* b) {
          batch_order.push_back(b->index);
          for (auto& r : b->records) out.push_back(std::move(r));
          return Status::OK();
        },
        stats);
    // The sink sees batches in FIFO order regardless of scheduling.
    for (size_t i = 0; i < batch_order.size(); ++i) {
      EXPECT_EQ(batch_order[i], static_cast<int64_t>(i));
    }
    return out;
  }

  static ReferenceGenome* ref_;
  static DonorGenome* donor_;
  static SimulatedSample* sample_;
  static GenomeIndex* index_;
  static std::vector<FastqRecord>* interleaved_;
};

ReferenceGenome* PipelineNodeTest::ref_ = nullptr;
DonorGenome* PipelineNodeTest::donor_ = nullptr;
SimulatedSample* PipelineNodeTest::sample_ = nullptr;
GenomeIndex* PipelineNodeTest::index_ = nullptr;
std::vector<FastqRecord>* PipelineNodeTest::interleaved_ = nullptr;

TEST_F(PipelineNodeTest, StreamMatchesMonolithicAlignPairs) {
  PairedAlignerOptions aopt = SmallBatches();
  AlignCleanStreamOptions opts;
  opts.clean = false;
  AlignCleanStreamStats stats;
  Status status;
  std::vector<SamRecord> streamed =
      CollectStream(opts, aopt, &stats, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();

  PairedEndAligner aligner(*index_, aopt);
  std::vector<SamRecord> monolithic = aligner.AlignPairs(*interleaved_);
  EXPECT_EQ(streamed, monolithic);
  EXPECT_EQ(stats.reads, static_cast<int64_t>(interleaved_->size()));
  EXPECT_GT(stats.batches, 1);
  EXPECT_GT(stats.kernel.calls, 0);
}

TEST_F(PipelineNodeTest, CleanNodeMatchesBarrieredTransforms) {
  PairedAlignerOptions aopt = SmallBatches();
  PairedEndAligner aligner(*index_, aopt);
  SamHeader header = aligner.MakeHeader();
  ReadGroup rg{"rg1", "sample1", "lib1"};

  AlignCleanStreamOptions opts;
  opts.clean = true;
  opts.header = &header;
  opts.read_group = rg;
  AlignCleanStreamStats stats;
  Status status;
  std::vector<SamRecord> streamed =
      CollectStream(opts, aopt, &stats, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();

  // The barriered reference: whole-vector align, then the round-2
  // map-side transforms applied in one shot.
  std::vector<SamRecord> expected = aligner.AlignPairs(*interleaved_);
  SamHeader local = header;
  ASSERT_TRUE(AddReplaceReadGroups(rg, &local, &expected).ok());
  CleanSamStats cs = CleanSam(local, &expected);
  EXPECT_EQ(streamed, expected);
  EXPECT_EQ(stats.clean_clipped, cs.clipped_overhangs);
  EXPECT_EQ(stats.clean_dropped, cs.dropped_invalid);
}

TEST_F(PipelineNodeTest, MidStreamCancelUnwindsCleanly) {
  auto cancel = std::make_shared<CancelToken>();
  PairedAlignerOptions aopt = SmallBatches();
  AlignCleanStreamOptions opts;
  opts.clean = false;
  opts.cancel = cancel;
  AlignCleanStreamStats stats;
  std::atomic<int> sunk{0};
  Status status = RunAlignCleanStream(
      *index_, aopt, *interleaved_, opts,
      [&](RecordBatch*) {
        if (sunk.fetch_add(1) == 0) cancel->Cancel("test cancel");
        return Status::OK();
      },
      &stats);
  ASSERT_TRUE(status.IsCancelled()) << status.ToString();
  EXPECT_NE(status.message().find("test cancel"), std::string::npos);
  // The loop stopped early: not every batch reached the sink.
  const int64_t total_batches =
      (static_cast<int64_t>(interleaved_->size()) +
       2 * aopt.batch_size - 1) /
      (2 * aopt.batch_size);
  EXPECT_LT(sunk.load(), total_batches);
}

TEST_F(PipelineNodeTest, SinkErrorAbortsGraph) {
  PairedAlignerOptions aopt = SmallBatches();
  AlignCleanStreamOptions opts;
  opts.clean = false;
  AlignCleanStreamStats stats;
  Status status = RunAlignCleanStream(
      *index_, aopt, *interleaved_, opts,
      [](RecordBatch*) { return Status::IOError("sink disk full"); },
      &stats);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("disk full"), std::string::npos);
}

}  // namespace
}  // namespace gesall
