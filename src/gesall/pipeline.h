// Gesall parallel pipeline driver: the five MapReduce rounds of the
// paper's evaluation (§4.1, Appendix A.2), executed on the functional
// MapReduce engine over the DFS substrate.
//
//   Round 1  map-only   Bwa alignment + SamToBam
//   Round 2  map+reduce AddReplaceGroups + CleanSam | shuffle by read
//                        name | FixMateInformation
//   Round 3  map+reduce compound-key extraction (MarkDup_reg or
//                        MarkDup_opt with a bloom-filter pre-round) |
//                        shuffle | duplicate marking
//   Round 4  map+reduce coordinate keys | range partition by chromosome |
//                        sort + index
//   Round 5  map-only   Haplotype Caller per chromosome (or per
//                        overlapping segment)
//
// Each round reads its input from and writes its output to the DFS, with
// logical partitions pinned to single data nodes via Gesall's custom
// block placement policy. Each round's jobs are defined once, in the
// stage table of pipeline.cc; barriered, pipelined, streamed and resumed
// runs differ only in how those stages are scheduled.

#ifndef GESALL_GESALL_PIPELINE_H_
#define GESALL_GESALL_PIPELINE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "align/aligner.h"
#include "analysis/genotyper.h"
#include "analysis/haplotype_caller.h"
#include "dfs/dfs.h"
#include "formats/fastq.h"
#include "formats/vcf.h"
#include "gesall/diagnosis.h"
#include "mr/mapreduce.h"
#include "util/cancel.h"
#include "util/executor.h"
#include "util/status.h"

namespace gesall {

class FaultInjector;

/// \brief Stable round indices used by durable round manifests and the
/// on_round_complete hook (values are on-disk format; never renumber).
enum PipelineRound : int {
  kRoundAlignment = 1,
  kRoundCleaning = 2,
  kRoundMarkDuplicates = 3,
  kRoundRecalibration = 4,
  kRoundSort = 5,
  kRoundVariants = 6,
};

/// \brief Pipeline configuration (the paper's tunables: logical partition
/// granularity, degree of parallelism, MarkDup variant, HC partitioning).
struct PipelineConfig {
  /// Logical FASTQ partitions for Round 1 ("granularity of scheduling").
  int alignment_partitions = 8;
  /// Reducers for rounds 2 and 3 ("degree of parallelism").
  int cleaning_reducers = 4;
  int markdup_reducers = 4;
  /// MarkDup_opt (bloom filter pre-round) vs MarkDup_reg.
  bool markdup_use_bloom = true;
  /// Concurrent tasks of the functional engine.
  int max_parallel_tasks = 4;
  /// Map-side sort buffer (mapreduce.task.io.sort.mb analog).
  int64_t sort_buffer_bytes = 64LL << 20;
  /// Compress map-side spill runs with the BGZF codec
  /// (mapreduce.map.output.compress analog), forwarded into every
  /// round's JobConfig. Merged reduce input — and thus every output —
  /// is byte-identical either way; only disk bytes and codec cpu move
  /// (reported through SummarizeStorage).
  bool compress_shuffle = false;
  /// zlib level for compress_shuffle (-1 = zlib default, else 0..9).
  int shuffle_compress_level = -1;
  /// Arm the map-side combiners of rounds 2 and 3 (Hadoop combiner
  /// analog). Combiners are output-preserving: variant calls and every
  /// per-record counter are identical either way; only map-side work
  /// (pre-applied FixMate, deduped criterion-2 representatives) moves.
  bool use_combiners = true;

  ReadGroup read_group{"rg1", "sample1", "lib1"};
  PairedAlignerOptions aligner;
  HaplotypeCallerOptions hc;

  enum class HcPartitioning { kChromosome, kOverlappingSegments };
  HcPartitioning hc_partitioning = HcPartitioning::kChromosome;
  /// Segments per chromosome in overlapping mode (degree of parallelism
  /// beyond the 23-way chromosome limit the paper discusses).
  int hc_segments_per_chromosome = 4;

  /// Round 5 variant caller (Table 2 offers both v1 and v2).
  enum class VariantCaller { kHaplotypeCaller, kUnifiedGenotyper };
  VariantCaller variant_caller = VariantCaller::kHaplotypeCaller;
  /// Unified Genotyper options when selected.
  GenotyperOptions ug;

  /// Insert the Base Recalibrator rounds (Table 2 steps 11-12) between
  /// Mark Duplicates and the sort: a map-only round builds per-partition
  /// covariate tables which are merged (GDPT group partitioning by
  /// covariates, §3.2), then a second map-only round rewrites qualities.
  bool run_recalibration = false;

  /// Fault-tolerance knobs, forwarded into every round's JobConfig; the
  /// node model sizes from the DFS cluster (num_nodes =
  /// dfs->num_data_nodes()). The injector (optional; not owned) lets
  /// chaos tests exercise the retry machinery deterministically; it is
  /// also installed on the DFS read path for the lifetime of the
  /// pipeline runs.
  FaultInjector* fault_injector = nullptr;
  int max_task_attempts = 2;

  /// Overlap the five rounds in RunAll(): a round's map tasks start as
  /// soon as the upstream partition they read is written (Round 5 HC for
  /// a chromosome starts once Round 4 sorted that chromosome), instead
  /// of barriering between rounds. Outputs, variant calls, and every
  /// per-record counter are byte-identical either way — only wall-clock
  /// scheduling changes. Off by default so seeded chaos runs keep their
  /// historical round ordering.
  bool pipelined = false;
  /// Fuse rounds 1+2 into one streamed job: every map task aligns and
  /// cleans its FASTQ partition one batch at a time and emits each
  /// batch straight into the round-2 shuffle (RunAlignCleanStream,
  /// pipeline_node.h), so the aligned stage is never materialized on
  /// the DFS. The FASTQ text and the parsed reads are O(partition); the
  /// aligned records held at once are one batch. Outputs, variant
  /// calls, and per-record counters are byte-identical to the barriered
  /// rounds 1+2 (batch boundaries match AlignPairs' own). It seals
  /// round 2 (kRoundCleaning) as "round1_2_streamed"; round 1 has no
  /// manifest. Without `pipelined` it runs on barrier edges.
  bool streaming = false;
  /// Executor every round's tasks run on (not owned). Null selects the
  /// process-wide Executor::Shared().
  Executor* executor = nullptr;

  /// DFS namespace root for every stage directory ("<root>/input/",
  /// "<root>/aligned/", ...). The service layer gives each job its own
  /// root ("/jobs/<tenant>/<id>") so concurrent pipelines on one Dfs
  /// never collide; the default keeps the historical single-job layout.
  std::string dfs_root = "/gesall";
  /// Advance the DFS heartbeat clock once at the end of every round
  /// (the historical coupling). The service layer turns this off and
  /// ticks continuously through a HeartbeatDriver instead, so dead-node
  /// detection does not stall while a cluster sits idle between jobs.
  bool auto_tick = true;
  /// Optional cooperative cancellation, forwarded into every round's
  /// JobConfig. Once flipped, the running round fails fast with
  /// Status::Cancelled, no further round starts, and RunAll() deletes
  /// the job's partial stage outputs from the DFS before returning (the
  /// loaded input partitions under dfs_root stay) — unless
  /// preserve_outputs_on_cancel keeps them for a later resume.
  std::shared_ptr<CancelToken> cancel;

  /// Durable round manifests: after a round's outputs land in DFS, a
  /// manifest listing them (paths + sizes) is written under
  /// "<dfs_root>/manifests/round-<k>", and Round 5's variant calls are
  /// additionally persisted under "<dfs_root>/variants/". On a durable
  /// Dfs the manifests survive a crash, marking the round as sealed.
  bool write_manifests = false;
  /// Consult manifests at the start of every round and skip rounds whose
  /// listed outputs are all present with matching sizes (the skipped
  /// round records a RoundStats entry whose only counter is
  /// "round_skipped_on_resume"). Deterministic rounds make re-execution
  /// and skipping byte-equivalent. A resumed run keeps its schedule: a
  /// skipped round fires its partitions' readiness signals at once, so
  /// pipelined and streamed runs overlap the rounds that remain.
  bool resume = false;
  /// Keep stage outputs and manifests on a cancelled RunAll() instead of
  /// deleting them. The durable service layer sets this so a
  /// crash-cancelled job can resume from its sealed rounds; partials are
  /// confined to the job's dfs_root namespace either way.
  bool preserve_outputs_on_cancel = false;
  /// Fired after each round completes — executed or skipped on resume —
  /// with the PipelineRound index and the round's stats name. The
  /// durable service journals round completion through this hook.
  std::function<void(int round_index, const std::string& round_name)>
      on_round_complete;
};

/// \brief Wall-clock and counter statistics of one executed round.
struct RoundStats {
  std::string name;
  double wall_seconds = 0;
  JobCounters counters;
  std::vector<TaskRecord> tasks;
};

/// \brief The parallel pipeline over one loaded sample.
class GesallPipeline {
 public:
  GesallPipeline(const ReferenceGenome& reference, const GenomeIndex& index,
                 Dfs* dfs, PipelineConfig config = {});

  /// Interleaves and splits the mate files into logical partitions in DFS
  /// (the paper's pre-step: "merge them to a single sorted file of read
  /// pairs, then split into logical partitions").
  Status LoadSample(const std::vector<FastqRecord>& mate1,
                    const std::vector<FastqRecord>& mate2);

  /// Each call runs one round's stages with barrier edges, resuming
  /// (skipping) it when config.resume finds it sealed. With
  /// config.streaming round 1 owns no stage: RunRound1Alignment() runs
  /// nothing and RunRound2Cleaning() runs the fused rounds 1+2.
  Status RunRound1Alignment();
  Status RunRound2Cleaning();
  /// The bloom pre-round (config.markdup_use_bloom), then MarkDuplicates.
  Status RunRound3MarkDuplicates();
  /// Optional (config.run_recalibration): builds and applies the merged
  /// covariate table across all partitions.
  Status RunRecalibrationRounds();
  Status RunRound4Sort();
  Result<std::vector<VariantRecord>> RunRound5VariantCalling();

  /// Runs rounds 1-5 (plus recalibration when configured) and returns
  /// the final variant calls; config.pipelined overlaps the rounds.
  Result<std::vector<VariantRecord>> RunAll();

  /// Concatenated records of a stage ("aligned", "cleaned", "dedup",
  /// "sorted"), for the error-diagnosis toolkit.
  Result<std::vector<SamRecord>> ReadStageRecords(
      const std::string& stage) const;

  const std::vector<RoundStats>& stats() const { return stats_; }
  const SamHeader& header() const { return header_; }
  Dfs* dfs() { return dfs_; }

  /// Aggregates the task-retry counters of every executed round
  /// plus the DFS failover stats into one FaultToleranceSummary, ready
  /// for GenerateDiagnosisReport.
  FaultToleranceSummary SummarizeFaultTolerance() const;

  /// Aggregates the integrity/node-failure counters of every executed
  /// round plus the DFS checksum/heartbeat stats into one
  /// NodeFailureSummary, ready for GenerateDiagnosisReport.
  NodeFailureSummary SummarizeNodeFailures() const;

  /// Aggregates the raw-vs-compressed disk-byte counters of every
  /// executed round plus the DFS codec stats into one StorageSummary,
  /// ready for GenerateDiagnosisReport.
  StorageSummary SummarizeStorage() const;

  /// Execution-engine telemetry of the last RunAll(): executor
  /// task/steal/queue-wait deltas and per-round wall spans. Zero before
  /// RunAll() ran.
  const ExecutionSummary& SummarizeExecution() const { return execution_; }

 private:
  JobConfig MakeJobConfig(int reducers) const;
  /// End-of-round heartbeat: Dfs::Tick when config_.auto_tick, else a
  /// no-op (an external HeartbeatDriver owns the clock).
  Status MaybeTick();
  /// Deletes every stage output under dfs_root except the loaded input
  /// partitions — the cancelled-run cleanup.
  void RemoveStageOutputs();
  /// DFS directory whose files a round's manifest seals.
  const std::string& RoundOutputDir(int round_index) const;
  std::string ManifestPath(int round_index) const;
  /// True when the round's manifest exists and every listed output is
  /// present in DFS with a matching size.
  bool RoundComplete(int round_index) const;
  /// Writes the round's manifest (when write_manifests) and fires
  /// on_round_complete.
  Status SealRound(int round_index, const std::string& name);
  /// One MapReduce job of the stage table, and what stages hand to
  /// later stages (both defined in pipeline.cc).
  struct Stage;
  struct StageProducts;
  /// The stage table: every MR job of the pipeline for this config, in
  /// order (streaming replaces rounds 1 and 2 with one fused stage).
  std::vector<Stage> BuildStages(StageProducts* products) const;
  /// Schedules the table's stages of `rounds` from the calling thread:
  /// barrier edges, or signal edges where `overlap` allows; resume
  /// pre-completes sealed rounds. Returns round 5's calls (empty when it
  /// was not among `rounds`) and appends each landed stage's span to
  /// `spans` when non-null.
  Result<std::vector<VariantRecord>> RunRounds(const std::vector<int>& rounds,
                                               bool overlap,
                                               std::vector<RoundSpan>* spans);

  const ReferenceGenome* reference_;
  const GenomeIndex* index_;
  Dfs* dfs_;
  PipelineConfig config_;
  // Stage directories under config_.dfs_root, precomputed once.
  std::string input_dir_;
  std::string aligned_dir_;
  std::string cleaned_dir_;
  std::string dedup_dir_;
  std::string recal_dir_;
  std::string sorted_dir_;
  std::string manifests_dir_;
  std::string variants_dir_;
  SamHeader header_;
  std::vector<RoundStats> stats_;
  ExecutionSummary execution_;
};

// ---------------------------------------------------------------------
// Serial reference pipeline (the paper's single-node "gold standard",
// GATK best practices): the same wrapped programs executed as a chain of
// timed steps on a single-worker executor, plus hybrid tails used to
// compute the discordant-impact (D_impact) measures of §4.5.2.

/// \brief Serial pipeline configuration.
struct SerialPipelineConfig {
  PairedAlignerOptions aligner;
  ReadGroup read_group{"rg1", "sample1", "lib1"};
  HaplotypeCallerOptions hc;
  /// Include BaseRecalibrator + PrintReads (Table 2 steps 11-12).
  bool run_recalibration = false;
};

/// \brief Intermediate and final outputs of the serial pipeline (the R_i
/// of the error-diagnosis formalism).
struct SerialStageOutputs {
  SamHeader header;
  std::vector<SamRecord> aligned;
  std::vector<SamRecord> cleaned;  // + read groups + fixed mates
  std::vector<SamRecord> deduped;
  std::vector<SamRecord> sorted;
  std::vector<VariantRecord> variants;
  std::map<std::string, double> step_seconds;  // per wrapped program
};

/// \brief Runs the full serial pipeline on interleaved FASTQ pairs.
Result<SerialStageOutputs> RunSerialPipeline(
    const ReferenceGenome& reference, const GenomeIndex& index,
    const std::vector<FastqRecord>& interleaved,
    const SerialPipelineConfig& config = {});

/// \brief Hybrid tail for D_impact(P1): serial cleaning -> duplicates ->
/// sort -> Haplotype Caller, starting from (possibly parallel-produced)
/// alignment output grouped by read name.
Result<std::vector<VariantRecord>> SerialTailFromAligned(
    const ReferenceGenome& reference, const SamHeader& header,
    std::vector<SamRecord> aligned, const SerialPipelineConfig& config = {});

/// \brief Hybrid tail for D_impact(P2): serial sort -> Haplotype Caller
/// from duplicate-marked records.
Result<std::vector<VariantRecord>> SerialTailFromDeduped(
    const ReferenceGenome& reference, const SamHeader& header,
    std::vector<SamRecord> deduped, const SerialPipelineConfig& config = {});

}  // namespace gesall

#endif  // GESALL_GESALL_PIPELINE_H_
