#include "gesall/report.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace gesall {

namespace {

void Append(std::string* out, const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  *out += buf;
}

}  // namespace

Result<DiagnosisReport> GenerateDiagnosisReport(
    const DiagnosisReportInputs& in) {
  if (in.reference == nullptr || in.serial == nullptr ||
      in.parallel_aligned == nullptr || in.parallel_deduped == nullptr ||
      in.parallel_variants == nullptr) {
    return Status::InvalidArgument("missing diagnosis report inputs");
  }
  DiagnosisReport report;
  report.alignment = CompareAlignments(*in.reference, in.serial->aligned,
                                       *in.parallel_aligned);
  report.duplicates =
      CompareDuplicates(in.serial->deduped, *in.parallel_deduped);
  report.variants =
      CompareVariants(in.serial->variants, *in.parallel_variants);
  if (in.truth != nullptr) {
    report.serial_truth_score =
        EvaluateAgainstTruth(in.serial->variants, *in.truth);
    report.parallel_truth_score =
        EvaluateAgainstTruth(*in.parallel_variants, *in.truth);
  }

  report.discordance_is_low_quality =
      report.alignment.d_count == 0 ||
      report.alignment.weighted_d_count <
          0.5 * static_cast<double>(report.alignment.d_count);
  int64_t total_calls = static_cast<int64_t>(report.variants.concordant.size()) +
                        report.variants.d_count();
  report.variant_impact_small =
      total_calls == 0 || report.variants.d_count() * 100 <= total_calls;
  report.truth_scores_match =
      in.truth == nullptr ||
      (std::abs(report.serial_truth_score.precision -
                report.parallel_truth_score.precision) < 0.01 &&
       std::abs(report.serial_truth_score.sensitivity -
                report.parallel_truth_score.sensitivity) < 0.01);

  std::string& md = report.markdown;
  md += "# Parallel pipeline error-tracking report\n\n";

  md += "## Stage 1: alignment (Bwa)\n\n";
  Append(&md, "- reads compared: %lld\n",
         static_cast<long long>(report.alignment.total_reads));
  Append(&md, "- discordant (D_count): %lld\n",
         static_cast<long long>(report.alignment.d_count));
  Append(&md, "- weighted D_count (logistic MAPQ 30..55): %.2f\n",
         report.alignment.weighted_d_count);
  Append(&md, "- in centromeres: %lld, in blacklist: %lld, elsewhere: "
              "%lld\n",
         static_cast<long long>(report.alignment.discordant_centromere),
         static_cast<long long>(report.alignment.discordant_blacklist),
         static_cast<long long>(report.alignment.discordant_elsewhere));
  Append(&md, "- surviving MAPQ>30 + region filters: %lld\n\n",
         static_cast<long long>(report.alignment.discordant_after_filters));

  md += "## Stage 2: duplicate marking\n\n";
  Append(&md, "- flags differing: %lld (weighted %.2f)\n",
         static_cast<long long>(report.duplicates.d_count),
         report.duplicates.weighted_d_count);
  Append(&md, "- duplicate totals: serial %lld vs parallel %lld "
              "(delta %lld)\n\n",
         static_cast<long long>(report.duplicates.duplicates_serial),
         static_cast<long long>(report.duplicates.duplicates_parallel),
         static_cast<long long>(report.duplicates.duplicate_count_delta()));

  md += "## Stage 3: final variant calls\n\n";
  Append(&md, "- concordant: %zu, serial-only: %zu, parallel-only: %zu\n",
         report.variants.concordant.size(),
         report.variants.only_first.size(),
         report.variants.only_second.size());
  Append(&md, "- weighted discordance: %.2f (%.4f%% of calls)\n\n",
         report.variants.weighted_d_count,
         report.variants.weighted_d_count_pct);

  if (in.fault_tolerance != nullptr) {
    report.fault_tolerance = *in.fault_tolerance;
    const FaultToleranceSummary& ft = report.fault_tolerance;
    md += "## Fault tolerance\n\n";
    Append(&md, "- map task retries: %lld, reduce task retries: %lld\n",
           static_cast<long long>(ft.map_task_retries),
           static_cast<long long>(ft.reduce_task_retries));
    Append(&md, "- DFS replica failures: %lld (blocks failed over: %lld, "
                "nodes blacklisted: %lld)\n",
           static_cast<long long>(ft.replica_read_failures),
           static_cast<long long>(ft.blocks_failed_over),
           static_cast<long long>(ft.nodes_blacklisted));
    md += ft.any_faults_survived()
              ? "- the output above was produced UNDER faults; "
                "discordance verdicts already include their effect\n\n"
              : "- no recovery mechanism fired during this run\n\n";
  }

  if (in.node_failures != nullptr) {
    report.node_failures = *in.node_failures;
    const NodeFailureSummary& nf = report.node_failures;
    md += "## Node failures\n\n";
    Append(&md, "- corrupt replicas: %lld detected, %lld quarantined\n",
           static_cast<long long>(nf.corruptions_detected),
           static_cast<long long>(nf.replicas_quarantined));
    Append(&md, "- re-replication: %lld replicas (%lld bytes)\n",
           static_cast<long long>(nf.blocks_re_replicated),
           static_cast<long long>(nf.bytes_re_replicated));
    Append(&md, "- heartbeat: %lld nodes declared dead, %lld restarts\n",
           static_cast<long long>(nf.nodes_declared_dead),
           static_cast<long long>(nf.node_restarts));
    Append(&md, "- lost map outputs: %lld to dead nodes, %lld corrupt "
                "fetches; %lld map tasks re-executed\n",
           static_cast<long long>(nf.map_outputs_lost_to_dead_nodes),
           static_cast<long long>(nf.shuffle_fetch_corruptions),
           static_cast<long long>(nf.map_tasks_reexecuted));
    Append(&md, "- shuffle integrity: %lld partitions verified "
                "(%lld bytes checksummed)\n",
           static_cast<long long>(nf.shuffle_partitions_verified),
           static_cast<long long>(nf.shuffle_checksummed_bytes));
    md += nf.any_node_failures_survived()
              ? "- the output above survived corruption/node loss; "
                "discordance verdicts already include their effect\n\n"
              : "- no corruption or node loss observed during this run\n\n";
  }

  if (in.execution != nullptr) {
    report.execution = *in.execution;
    const ExecutionSummary& ex = report.execution;
    md += "## Execution engine\n\n";
    Append(&md, "- mode: %s rounds on the shared work-stealing executor\n",
           ex.streaming
               ? "streaming (rounds 1+2 fused into one batch loop per map task)"
               : ex.pipelined ? "pipelined (per-partition overlap)"
                              : "barriered");
    if (ex.peak_rss_bytes > 0) {
      Append(&md, "- peak RSS: %.1f MiB\n",
             static_cast<double>(ex.peak_rss_bytes) / (1024.0 * 1024.0));
    }
    Append(&md, "- tasks executed: %lld (steals: %lld, tasks stolen: "
                "%lld, queue wait: %.3fs)\n",
           static_cast<long long>(ex.tasks_executed),
           static_cast<long long>(ex.steals),
           static_cast<long long>(ex.tasks_stolen), ex.queue_wait_seconds);
    Append(&md, "- wall: %.3fs vs %.3fs serialized rounds "
                "(overlap saved %.3fs)\n",
           ex.wall_seconds, ex.serialized_round_seconds,
           ex.overlap_seconds_saved);
    for (const auto& round : ex.rounds) {
      Append(&md, "- round %s: [%.3fs, %.3fs]", round.name.c_str(),
             round.start_seconds, round.end_seconds);
      if (round.partition_output_seconds > 0) {
        // Summed over partitions, which build and write concurrently.
        Append(&md, ", partition output %.3fs (BAM build + DFS write after "
                    "each reduce task)",
               round.partition_output_seconds);
      }
      md += "\n";
    }
    md += "\n";
  }

  if (in.storage != nullptr) {
    report.storage = *in.storage;
    const StorageSummary& st = report.storage;
    md += "## Disk bytes\n\n";
    Append(&md, "- shuffle spills: %lld raw -> %lld on disk (%.2fx), "
                "codec cpu %.3fs deflate / %.3fs inflate\n",
           static_cast<long long>(st.shuffle_bytes_raw),
           static_cast<long long>(st.shuffle_bytes_compressed),
           st.shuffle_ratio(),
           static_cast<double>(st.shuffle_compress_micros) / 1e6,
           static_cast<double>(st.shuffle_decompress_micros) / 1e6);
    Append(&md, "- DFS parts: %lld raw -> %lld stored (%.2fx), "
                "codec cpu %.3fs deflate / %.3fs inflate\n",
           static_cast<long long>(st.dfs_bytes_raw),
           static_cast<long long>(st.dfs_bytes_compressed), st.dfs_ratio(),
           static_cast<double>(st.dfs_compress_micros) / 1e6,
           static_cast<double>(st.dfs_decompress_micros) / 1e6);
    md += st.any_compression_active()
              ? "- compressed state round-trips byte-identically; the "
                "discordance verdicts above cover it\n\n"
              : "- compression off (or incompressible): raw and on-disk "
                "bytes coincide\n\n";
  }

  if (in.truth != nullptr) {
    md += "## Truth-set scoring\n\n";
    Append(&md, "- serial:   precision %.4f, sensitivity %.4f\n",
           report.serial_truth_score.precision,
           report.serial_truth_score.sensitivity);
    Append(&md, "- parallel: precision %.4f, sensitivity %.4f\n\n",
           report.parallel_truth_score.precision,
           report.parallel_truth_score.sensitivity);
  }

  md += "## Verdict\n\n";
  Append(&md, "- [%c] discordant reads are predominantly low quality\n",
         report.discordance_is_low_quality ? 'x' : ' ');
  Append(&md, "- [%c] impact on final variant calls is small (<1%%)\n",
         report.variant_impact_small ? 'x' : ' ');
  Append(&md, "- [%c] truth-set scores are unchanged by parallelization\n",
         report.truth_scores_match ? 'x' : ' ');
  md += report.discordance_is_low_quality && report.variant_impact_small &&
                report.truth_scores_match
            ? "\nACCEPT: data partitioning does not increase error rates "
              "or reduce correct calls.\n"
            : "\nREVIEW: at least one acceptance criterion failed; "
              "diagnose before production use.\n";
  return report;
}

}  // namespace gesall
