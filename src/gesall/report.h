// Pipeline error-tracking report (paper Appendix C, research question 2:
// "a rigorous framework for keeping track of errors in a deep genomic
// pipeline"). Renders the error-diagnosis toolkit's stage-by-stage
// comparison of a parallel pipeline against the serial reference into a
// single markdown document a bioinformatician can review before
// accepting the parallel pipeline into production.

#ifndef GESALL_GESALL_REPORT_H_
#define GESALL_GESALL_REPORT_H_

#include <string>
#include <vector>

#include "gesall/diagnosis.h"
#include "gesall/pipeline.h"

namespace gesall {

/// \brief Inputs of a full serial-vs-parallel comparison.
struct DiagnosisReportInputs {
  const ReferenceGenome* reference = nullptr;
  const SerialStageOutputs* serial = nullptr;
  const std::vector<SamRecord>* parallel_aligned = nullptr;
  const std::vector<SamRecord>* parallel_deduped = nullptr;
  const std::vector<VariantRecord>* parallel_variants = nullptr;
  /// Optional planted-truth set for GiaB-style scoring.
  const std::vector<PlantedVariant>* truth = nullptr;
  /// Optional fault-tolerance telemetry of the parallel run (retries,
  /// DFS failover) — rendered as its own report section so
  /// a reviewer sees which recoveries the accepted output survived.
  const FaultToleranceSummary* fault_tolerance = nullptr;
  /// Optional integrity/node-failure telemetry (checksum detections,
  /// re-replication, heartbeat deaths, map re-executions) — rendered as
  /// its own section alongside the fault-tolerance one.
  const NodeFailureSummary* node_failures = nullptr;
  /// Optional execution-engine telemetry of the parallel run (executor
  /// task/steal/queue-wait counts, per-round wall spans) — rendered as
  /// its own section that shows where the wall-clock went.
  const ExecutionSummary* execution = nullptr;
  /// Optional disk-byte/compression telemetry (raw vs on-disk bytes on
  /// the shuffle and DFS paths, codec cpu time) — rendered as its own
  /// "Disk bytes" section, the Fig. 10 disk-utilization axes.
  const StorageSummary* storage = nullptr;
};

/// \brief Computed report: the structured verdicts plus markdown text.
struct DiagnosisReport {
  AlignmentDiscordance alignment;
  DuplicateDiscordance duplicates;
  VariantDiscordance variants;
  PrecisionSensitivity serial_truth_score;    // zero when truth absent
  PrecisionSensitivity parallel_truth_score;
  FaultToleranceSummary fault_tolerance;      // zero when not supplied
  NodeFailureSummary node_failures;           // zero when not supplied
  ExecutionSummary execution;                 // zero when not supplied
  StorageSummary storage;                     // zero when not supplied

  /// The paper's acceptance criteria (§4.5.2 conclusions).
  bool discordance_is_low_quality = false;  // weighted << raw D_count
  bool variant_impact_small = false;        // < 1% of calls
  bool truth_scores_match = false;          // serial ~ parallel vs truth

  std::string markdown;
};

/// \brief Runs every comparison and renders the markdown report.
Result<DiagnosisReport> GenerateDiagnosisReport(
    const DiagnosisReportInputs& inputs);

}  // namespace gesall

#endif  // GESALL_GESALL_REPORT_H_
