// bench_e2e: the repository's end-to-end benchmark.
//
// Four workloads drive the real system (durable file-backed DFS, no
// injected faults or straggler sleeps) from one process and one
// Executor(nproc - 1); NumThreads() in workloads.cc says why one core is
// left free. Every operation -- a pipeline pass or a service job
// -- runs on its own simulated read set and its variant calls are
// checked against an untimed reference run on the same sample. The
// untraced run yields the end-to-end metrics; `--trace` adds one traced
// pass whose spans and counters give the per-layer metrics. Everything
// is measured from outside the program: timings around calls into each
// layer's public functions, plus the RoundStats / TaskRecord /
// JobCounters / DfsStats / ExecutorStats values the program exposes.

#ifndef GESALL_BENCH_E2E_E2E_H_
#define GESALL_BENCH_E2E_E2E_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "align/genome_index.h"
#include "formats/fastq.h"
#include "formats/vcf.h"
#include "genome/donor.h"
#include "gesall/pipeline.h"
#include "util/executor.h"

namespace gesall::e2e {

/// How a workload runs its operations.
enum class Mode {
  kStreamed,        // pipelined + streamed rounds 1+2, no compression
  kBarrieredCodec,  // barriered rounds, level-1 parts + shuffle, manifests
  kService,         // gesalld closed loop, durable job log + DFS
};

/// One workload of the benchmark (see README.md for why each exists).
struct Workload {
  const char* name;
  Mode mode;
  /// Workloads of one family share their reference genome and the
  /// read set of every operation index, so they differ by config only.
  const char* family;
  int chromosomes;
  int64_t chromosome_length;
  double coverage;
  double duplicate_rate;
  int partitions;
  /// Timed operations run at least this many times.
  int min_ops;
};

/// The workload table; `smoke` shrinks the pass samples to 1/5 of their
/// pairs and the operation counts, for the ctest run.
std::vector<Workload> Workloads(bool smoke);

/// Run-wide settings.
struct Options {
  uint64_t seed = 1;
  /// Timed work per workload: operations repeat until their summed wall
  /// time (passes) or the loop wall time (service) reaches this.
  double seconds = 8;
  /// Scratch root for durable DFS / job-log directories.
  std::string tmp_dir = "bench_e2e_tmp";
  /// Chrome trace-event output of the traced pass; empty runs no traced
  /// pass and reports no per-layer metrics.
  std::string trace_path;
  /// Corrupt one reference digest, to prove the checker fires.
  bool tamper = false;
};

/// One named measurement.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Everything one workload reports.
struct WorkloadResult {
  std::string workload;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  // traced runs only
  std::vector<std::string> errors;
  /// Wall time of every timed operation, in run order.
  std::vector<double> op_walls;
};

/// Order-sensitive digest of a call set ("Key()@qual" per variant).
struct Digest {
  uint64_t hash = 0;
  int64_t variants = 0;
  bool operator==(const Digest&) const = default;
};
Digest DigestOf(const std::vector<VariantRecord>& variants);

/// Reference genome + donor of one workload family.
struct Genome {
  ReferenceGenome reference;
  DonorGenome donor;
};

/// Mate streams of one operation. `index` picks the read set; the
/// coverage scale shrinks warm-up samples.
struct Sample {
  std::vector<FastqRecord> mate1;
  std::vector<FastqRecord> mate2;
  int64_t pairs() const { return static_cast<int64_t>(mate1.size()); }
};
Sample MakeSample(const Workload& w, const Genome& g, uint64_t seed,
                  uint64_t index, double coverage_scale = 1.0);

/// Operation index of the traced pass's read set (outside the timed range).
inline constexpr uint64_t kTracedIndex = 1ULL << 40;

/// The pipeline configuration of one workload's operations.
PipelineConfig MakePipelineConfig(const Workload& w, Executor* executor);
/// The DFS options of one workload, durable under `root`.
DfsOptions MakeDfsOptions(const Workload& w, const std::string& root);

/// A reference run's digest and wall time.
struct Reference {
  Digest digest;
  double seconds = 0;
};

/// The reference run of one operation's sample: pipelined, uncompressed,
/// in-memory DFS, same partitions (for service jobs, the job's own config
/// on an in-memory DFS).
Result<Reference> ReferenceFor(const Workload& w, const Genome& g,
                               const GenomeIndex& index, Executor* executor,
                               const Sample& sample);

/// Median / linear-interpolated quantile of a sample (0 when empty).
double Quantile(std::vector<double> xs, double q);
/// `s` as a quoted JSON string.
std::string JsonString(const std::string& s);

/// Runs one workload end to end (and, with a trace path, the traced pass).
WorkloadResult RunWorkload(const Workload& w, const Options& opt);

// ---- Per-layer attribution (layers.cc) -------------------------------

/// What the untraced operations of a workload leave for the traced run.
struct UntracedSummary {
  double wall_p50 = 0;       // sample_wall_s
  double job_p50 = 0;        // job_p50_s
  double reference_p50 = 0;  // median reference-run wall
  double queue_frac = 0;     // service: queue time / job latency
  double busy_s_per_job = 0;
  double journal_records_per_job = 0;
};

/// Set-up objects the traced pass reuses.
struct TraceContext {
  const Workload* workload = nullptr;
  const Genome* genome = nullptr;
  const GenomeIndex* index = nullptr;
  Executor* executor = nullptr;
  uint64_t seed = 0;
  std::string tmp_dir;
  std::string trace_path;
};

/// Runs one traced pass on its own sample, checks its variants against
/// the reference, runs the layer replays, writes the Chrome trace, and
/// prints the per-layer table. Fills result->per_layer.
Status RunTracedPass(const TraceContext& ctx, const UntracedSummary& untraced,
                     WorkloadResult* result);

}  // namespace gesall::e2e

#endif  // GESALL_BENCH_E2E_E2E_H_
