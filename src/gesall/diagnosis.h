// Error Diagnosis Toolkit (paper §3.4 and §4.5.2).
//
// Quantifies how a parallel pipeline's output differs from the serial
// reference: discordant counts (D_count), quality-weighted variants via
// the generalized logistic weighting, discordant variant impact
// (D_impact, computed by the caller through hybrid pipelines), and the
// Fig. 11 breakdowns (hard-to-map regions, MAPQ distribution, insert
// size) plus GiaB-style precision/sensitivity against planted truth.

#ifndef GESALL_GESALL_DIAGNOSIS_H_
#define GESALL_GESALL_DIAGNOSIS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dfs/dfs.h"
#include "formats/fasta.h"
#include "formats/sam.h"
#include "formats/vcf.h"
#include "genome/donor.h"
#include "mr/mapreduce.h"
#include "util/status.h"

namespace gesall {

/// \brief Alignment-level discordance between two pipelines (paper
/// Table 8 row "Bwa" and Fig. 11).
struct AlignmentDiscordance {
  int64_t total_reads = 0;
  int64_t d_count = 0;           // primary alignments that differ
  double weighted_d_count = 0;   // logistic(30..55) MAPQ weighting
  double weighted_d_count_pct = 0;

  // Fig. 11(a): where do disagreements fall?
  int64_t discordant_centromere = 0;
  int64_t discordant_blacklist = 0;
  int64_t discordant_elsewhere = 0;

  // Fig. 11(b): joint MAPQ distribution of disagreeing reads, bucketed
  // by 10 ((serial_bucket, parallel_bucket) -> count).
  std::map<std::pair<int, int>, int64_t> mapq_buckets;

  // Fig. 11(c): disagreeing proper pairs by (bucketed) insert size.
  std::map<int64_t, int64_t> insert_size_buckets;

  /// Disagreements surviving the two standard filters (MAPQ > 30, not in
  /// a blacklisted/centromeric region) — the paper's 0.025% remnant.
  int64_t discordant_after_filters = 0;
};

/// \brief Compares primary alignments keyed by (read name, mate).
AlignmentDiscordance CompareAlignments(
    const ReferenceGenome& reference, const std::vector<SamRecord>& serial,
    const std::vector<SamRecord>& parallel);

/// \brief Duplicate-flag discordance (paper Table 8 row "MarkDuplicates").
struct DuplicateDiscordance {
  int64_t d_count = 0;          // reads whose duplicate flag differs
  double weighted_d_count = 0;  // MAPQ-weighted
  int64_t duplicates_serial = 0;
  int64_t duplicates_parallel = 0;

  /// |#duplicates_serial - #duplicates_parallel| (the paper's "difference
  /// in number of duplicates is only 259").
  int64_t duplicate_count_delta() const {
    return duplicates_serial > duplicates_parallel
               ? duplicates_serial - duplicates_parallel
               : duplicates_parallel - duplicates_serial;
  }
};

DuplicateDiscordance CompareDuplicates(const std::vector<SamRecord>& serial,
                                       const std::vector<SamRecord>& parallel);

/// \brief Variant-set discordance (paper Tables 8-10): concordant set
/// Phi+, discordant sets, and quality-weighted counts.
struct VariantDiscordance {
  std::vector<VariantRecord> concordant;
  std::vector<VariantRecord> only_first;   // "Serial"-only calls
  std::vector<VariantRecord> only_second;  // "Hybrid"/parallel-only calls

  int64_t d_count() const {
    return static_cast<int64_t>(only_first.size() + only_second.size());
  }
  double weighted_d_count = 0;  // logistic weighting on variant QUAL
  double weighted_d_count_pct = 0;
};

VariantDiscordance CompareVariants(const std::vector<VariantRecord>& first,
                                   const std::vector<VariantRecord>& second);

/// \brief GiaB-style evaluation against the planted truth set.
struct PrecisionSensitivity {
  int64_t true_positives = 0;
  int64_t false_positives = 0;
  int64_t false_negatives = 0;
  double precision = 0;
  double sensitivity = 0;
};

PrecisionSensitivity EvaluateAgainstTruth(
    const std::vector<VariantRecord>& calls,
    const std::vector<PlantedVariant>& truth);

/// \brief Fault-tolerance telemetry of one pipeline execution: task
/// retries and DFS replica failover (the Hadoop behaviors of paper §3
/// that make partial task failures survivable at 220 GB scale).
struct FaultToleranceSummary {
  int64_t map_task_retries = 0;
  int64_t reduce_task_retries = 0;
  int64_t blocks_failed_over = 0;
  int64_t replica_read_failures = 0;
  int64_t nodes_blacklisted = 0;

  /// True when any recovery mechanism fired during the run.
  bool any_faults_survived() const {
    return map_task_retries > 0 || reduce_task_retries > 0 ||
           blocks_failed_over > 0;
  }
};

/// \brief Extracts the fault-tolerance telemetry from aggregated job
/// counters plus (optionally) the DFS read-path stats.
FaultToleranceSummary SummarizeFaultTolerance(const JobCounters& counters,
                                              const DfsStats* dfs_stats);

/// \brief Integrity and whole-node failure telemetry of one pipeline
/// execution: corrupted replicas detected/quarantined/re-replicated by
/// the DFS checksum + scrubber machinery, nodes declared dead on missed
/// heartbeats, and the MR job master's lost-map-output re-executions —
/// the recovery paths a chaos run must exercise to prove end-to-end
/// byte-identical output under corruption and node loss.
struct NodeFailureSummary {
  // DFS integrity (block CRC32C verification + scrubber).
  int64_t corruptions_detected = 0;
  int64_t replicas_quarantined = 0;
  int64_t blocks_re_replicated = 0;
  int64_t bytes_re_replicated = 0;
  // DFS liveness (heartbeat clock).
  int64_t nodes_declared_dead = 0;
  int64_t node_restarts = 0;
  // MR lost-map-output re-execution.
  int64_t map_tasks_reexecuted = 0;
  int64_t map_outputs_lost_to_dead_nodes = 0;
  int64_t shuffle_fetch_corruptions = 0;
  int64_t shuffle_partitions_verified = 0;
  int64_t shuffle_checksummed_bytes = 0;

  /// True when any corruption/node-loss recovery mechanism fired.
  bool any_node_failures_survived() const {
    return corruptions_detected > 0 || blocks_re_replicated > 0 ||
           nodes_declared_dead > 0 || map_tasks_reexecuted > 0;
  }
};

/// \brief Extracts the integrity/node-failure telemetry from aggregated
/// job counters plus (optionally) the DFS stats.
NodeFailureSummary SummarizeNodeFailures(const JobCounters& counters,
                                         const DfsStats* dfs_stats);

/// \brief Disk-byte and compression telemetry of one pipeline execution:
/// raw vs on-disk bytes on the shuffle-spill and DFS-part paths plus the
/// codec cpu time — both axes of the Fig. 10 disk-utilization study, so
/// a reviewer sees what compression bought and what it cost.
struct StorageSummary {
  // Shuffle spill path (JobConfig::compress_shuffle).
  int64_t shuffle_bytes_raw = 0;
  int64_t shuffle_bytes_compressed = 0;
  int64_t shuffle_compress_micros = 0;
  int64_t shuffle_decompress_micros = 0;
  // DFS part path (DfsOptions::compress_parts). Raw == stored when
  // compression is off; both are canonical-copy sizes (replication not
  // multiplied in).
  int64_t dfs_bytes_raw = 0;
  int64_t dfs_bytes_compressed = 0;
  int64_t dfs_compress_micros = 0;
  int64_t dfs_decompress_micros = 0;

  static double Ratio(int64_t raw, int64_t stored) {
    return stored > 0 ? static_cast<double>(raw) / static_cast<double>(stored)
                      : 1.0;
  }
  double shuffle_ratio() const {
    return Ratio(shuffle_bytes_raw, shuffle_bytes_compressed);
  }
  double dfs_ratio() const { return Ratio(dfs_bytes_raw, dfs_bytes_compressed); }
  /// True when either path actually shrank bytes on disk.
  bool any_compression_active() const {
    return (shuffle_bytes_compressed > 0 &&
            shuffle_bytes_compressed < shuffle_bytes_raw) ||
           (dfs_bytes_compressed > 0 && dfs_bytes_compressed < dfs_bytes_raw);
  }
};

/// \brief Extracts the disk-byte/compression telemetry from aggregated
/// job counters plus (optionally) the DFS stats.
StorageSummary SummarizeStorage(const JobCounters& counters,
                                const DfsStats* dfs_stats);

/// \brief Wall span of one pipeline round, relative to the run start.
struct RoundSpan {
  std::string name;
  double start_seconds = 0;
  double end_seconds = 0;
  // Summed wall time of the round's partition-output callbacks (BAM
  // build and DFS write after each reduce or map-only task's record
  // closed): the part of the span with no task running that the round
  // itself explains.
  double partition_output_seconds = 0;
};

/// \brief Execution-engine telemetry of one pipeline run on the shared
/// work-stealing executor: task/steal/queue-wait counts (delta over the
/// run) and the per-round wall spans. overlap_seconds_saved compares the
/// actual wall clock against the sum of round durations (what a fully
/// barriered engine would have spent).
struct ExecutionSummary {
  // Executor telemetry (delta across the run).
  int64_t tasks_executed = 0;
  int64_t steals = 0;
  int64_t tasks_stolen = 0;
  double queue_wait_seconds = 0;

  // Round scheduling.
  bool pipelined = false;
  // Rounds 1+2 ran fused, aligned and cleaned one batch at a time in
  // each map task (no aligned stage on the DFS); see
  // PipelineConfig::streaming.
  bool streaming = false;
  // Process peak RSS sampled at the end of the run (0 where the
  // platform exposes none). Reported only: the pipeline bench gates the
  // streaming path's memory on PeakAllocBytes (util/mem_hooks.cc), not
  // on this.
  int64_t peak_rss_bytes = 0;
  double wall_seconds = 0;
  double serialized_round_seconds = 0;  // sum of round durations
  double overlap_seconds_saved = 0;     // serialized - wall (>= 0)
  std::vector<RoundSpan> rounds;
};

}  // namespace gesall

#endif  // GESALL_GESALL_DIAGNOSIS_H_
