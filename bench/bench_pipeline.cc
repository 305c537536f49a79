// Pipelined round DAG vs barriered rounds: end-to-end wall clock of the
// five-round pipeline when map/reduce attempts suffer seeded straggler
// latency. The barriered engine pays every round's straggler tail in
// full; the pipelined engine admits downstream partitions while the tail
// sleeps. Latency-only injection never fails a task, so both engines
// produce byte-identical variant calls (checked) — only scheduling
// differs. Writes BENCH_pipeline.json and exits non-zero if the overlap
// speedup drops below 1.2x or outputs diverge.
//
// The "streaming" section gates the fused rounds-1+2 node graph
// (PipelineConfig::streaming): (a) the streamed align+clean chain's
// allocation high-water mark for a 2x-deeper sample split into 2x
// partitions stays within 1.15x of the 1x sample (memory scales with
// partition size, not depth), (b) the streaming engine beats the
// partition-pipelined engine by >= 1.1x end to end, and (c) streaming
// variants are byte-identical to the barriered oracle.

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "report.h"
#include "gesall/pipeline.h"
#include "gesall/pipeline_node.h"
#include "genome/read_simulator.h"
#include "genome/reference_generator.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/mem.h"

namespace gesall {
namespace {

constexpr uint64_t kSeed = 4242;
constexpr double kStragglerProbability = 0.6;
constexpr int kStragglerMillis = 300;

struct Sample {
  ReferenceGenome reference;
  DonorGenome donor;
  SimulatedSample reads;
  std::unique_ptr<GenomeIndex> index;
};

Sample MakeSample() {
  Sample s;
  ReferenceGeneratorOptions ro;
  ro.num_chromosomes = 2;
  ro.chromosome_length = 30'000;
  s.reference = GenerateReference(ro);
  s.donor = PlantVariants(s.reference, VariantPlanterOptions{});
  ReadSimulatorOptions so;
  so.coverage = 8.0;
  s.reads = SimulateReads(s.donor, so);
  s.index = std::make_unique<GenomeIndex>(s.reference);
  return s;
}

struct ModeResult {
  double wall_seconds = 0;
  ExecutionSummary execution;
  std::vector<std::string> variant_keys;
};

ModeResult RunMode(const Sample& s, bool pipelined, bool streaming = false) {
  // Fresh injector per run, same seed: the straggler schedule is a pure
  // function of (point, key, attempt), so both engines sleep the same
  // tasks for the same durations.
  // Stragglers land on both map and reduce attempts. The barriered
  // engine serializes every wave's straggler tail; the pipelined engine
  // admits round N+1's gated maps as soon as their partition lands, so
  // their stragglers sleep concurrently with round N's reduce tail.
  FaultInjector injector(kSeed);
  GESALL_CHECK(injector
                   .ArmLatency(kFaultMapAttempt, kStragglerProbability,
                               kStragglerMillis)
                   .ok());
  GESALL_CHECK(injector
                   .ArmLatency(kFaultReduceAttempt, kStragglerProbability,
                               kStragglerMillis)
                   .ok());

  DfsOptions dopt;
  dopt.block_size = 64 * 1024;
  dopt.num_data_nodes = 4;
  Dfs dfs(dopt);
  PipelineConfig config;
  config.alignment_partitions = 6;
  config.max_parallel_tasks = 8;
  config.pipelined = pipelined;
  config.streaming = streaming;
  config.fault_injector = &injector;
  GesallPipeline pipeline(s.reference, *s.index, &dfs, config);
  GESALL_CHECK(pipeline.LoadSample(s.reads.mate1, s.reads.mate2).ok());
  auto variants = pipeline.RunAll();
  GESALL_CHECK(variants.ok()) << variants.status().ToString();

  ModeResult r;
  r.execution = pipeline.SummarizeExecution();
  r.wall_seconds = r.execution.wall_seconds;
  for (const auto& v : variants.ValueOrDie()) {
    std::ostringstream os;
    os << v.Key() << "@" << v.qual;
    r.variant_keys.push_back(os.str());
  }
  return r;
}

// Incremental allocation high-water mark of streaming `parts` through
// the align node graph one partition at a time (sink discards), over
// the live count at phase start — the phase's own footprint, excluding
// whatever the caller keeps alive around it. The counter is fed by the
// operator-new hooks linked into this binary, so it is deterministic.
int64_t StreamPeakDelta(const Sample& s,
                        const std::vector<const std::vector<FastqRecord>*>&
                            parts) {
  ResetPeakAllocBytes();
  const int64_t live0 = LiveAllocBytes();
  for (const auto* part : parts) {
    AlignCleanStreamOptions opts;
    opts.clean = false;
    AlignCleanStreamStats stats;
    Status st = RunAlignCleanStream(
        *s.index, PairedAlignerOptions{}, *part, opts,
        [](RecordBatch*) { return Status::OK(); }, &stats);
    GESALL_CHECK(st.ok()) << st.ToString();
  }
  return PeakAllocBytes() - live0;
}

// The materialized alternative: one monolithic AlignPairs over the whole
// sample, every output record resident at once.
int64_t MonolithicPeakDelta(const Sample& s,
                            const std::vector<FastqRecord>& reads) {
  ResetPeakAllocBytes();
  const int64_t live0 = LiveAllocBytes();
  PairedEndAligner aligner(*s.index, PairedAlignerOptions{});
  std::vector<SamRecord> records = aligner.AlignPairs(reads);
  GESALL_CHECK(!records.empty());
  return PeakAllocBytes() - live0;
}

struct StreamingGates {
  double streaming_seconds = 0;
  double speedup_vs_pipelined = 0;
  bool identical_variants = false;
  int64_t peak_alloc_1x = 0;
  int64_t peak_alloc_2x = 0;
  double peak_ratio = 0;
  int64_t monolithic_peak_2x = 0;
};

void PrintJson(std::FILE* f, const ModeResult& barriered,
               const ModeResult& pipelined, double speedup,
               bool identical, const StreamingGates& sg) {
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"pipeline_round_overlap\",\n");
  std::fprintf(f, "  \"straggler_probability\": %.2f,\n",
               kStragglerProbability);
  std::fprintf(f, "  \"straggler_millis\": %d,\n", kStragglerMillis);
  std::fprintf(f, "  \"barriered_seconds\": %.4f,\n",
               barriered.wall_seconds);
  std::fprintf(f, "  \"pipelined_seconds\": %.4f,\n",
               pipelined.wall_seconds);
  std::fprintf(f, "  \"speedup\": %.3f,\n", speedup);
  std::fprintf(f, "  \"identical_variants\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(f, "  \"pipelined_serialized_round_seconds\": %.4f,\n",
               pipelined.execution.serialized_round_seconds);
  std::fprintf(f, "  \"pipelined_overlap_seconds_saved\": %.4f,\n",
               pipelined.execution.overlap_seconds_saved);
  std::fprintf(f, "  \"rounds\": [\n");
  const auto& rounds = pipelined.execution.rounds;
  for (size_t i = 0; i < rounds.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"start\": %.4f, \"end\": "
                 "%.4f}%s\n",
                 rounds[i].name.c_str(), rounds[i].start_seconds,
                 rounds[i].end_seconds,
                 i + 1 < rounds.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"streaming\": {\n");
  std::fprintf(f, "    \"streaming_seconds\": %.4f,\n",
               sg.streaming_seconds);
  std::fprintf(f, "    \"speedup_vs_pipelined\": %.3f,\n",
               sg.speedup_vs_pipelined);
  std::fprintf(f, "    \"identical_variants\": %s,\n",
               sg.identical_variants ? "true" : "false");
  std::fprintf(f, "    \"peak_alloc_bytes_1x\": %lld,\n",
               static_cast<long long>(sg.peak_alloc_1x));
  std::fprintf(f, "    \"peak_alloc_bytes_2x\": %lld,\n",
               static_cast<long long>(sg.peak_alloc_2x));
  std::fprintf(f, "    \"peak_alloc_ratio_2x_over_1x\": %.3f,\n",
               sg.peak_ratio);
  std::fprintf(f, "    \"monolithic_peak_alloc_bytes_2x\": %lld\n",
               static_cast<long long>(sg.monolithic_peak_2x));
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
}

int Main(int argc, char** argv) {
  bench::Title("Round overlap: barriered vs pipelined five-round DAG");
  bench::Note("seeded straggler latency on map+reduce attempts (p=0.6, "
              "300ms); identical work, different schedules");

  Sample sample = MakeSample();
  ModeResult barriered = RunMode(sample, /*pipelined=*/false);
  ModeResult pipelined = RunMode(sample, /*pipelined=*/true);
  ModeResult streamed =
      RunMode(sample, /*pipelined=*/true, /*streaming=*/true);

  const double speedup = barriered.wall_seconds / pipelined.wall_seconds;
  const bool identical =
      !barriered.variant_keys.empty() &&
      barriered.variant_keys == pipelined.variant_keys;

  StreamingGates sg;
  sg.streaming_seconds = streamed.wall_seconds;
  sg.speedup_vs_pipelined = pipelined.wall_seconds / streamed.wall_seconds;
  sg.identical_variants = !barriered.variant_keys.empty() &&
                          barriered.variant_keys == streamed.variant_keys;

  // Bounded-memory gate: a 2x-deeper sample streamed as 2x partitions
  // must peak within 1.15x of the 1x sample — the streaming chain's
  // footprint is one partition plus bounded queues, never the sample.
  {
    auto interleaved =
        InterleavePairs(sample.reads.mate1, sample.reads.mate2)
            .ValueOrDie();
    sg.peak_alloc_1x = StreamPeakDelta(sample, {&interleaved});
    sg.peak_alloc_2x = StreamPeakDelta(sample, {&interleaved, &interleaved});
    GESALL_CHECK(AllocTrackingActive());
    sg.peak_ratio = static_cast<double>(sg.peak_alloc_2x) /
                    static_cast<double>(sg.peak_alloc_1x);
    std::vector<FastqRecord> doubled = interleaved;
    doubled.insert(doubled.end(), interleaved.begin(), interleaved.end());
    sg.monolithic_peak_2x = MonolithicPeakDelta(sample, doubled);
  }

  std::printf("  %-12s %10s %12s %14s\n", "engine", "seconds",
              "serialized", "overlap saved");
  std::printf("  %-12s %10.3f %12.3f %14.3f\n", "barriered",
              barriered.wall_seconds,
              barriered.execution.serialized_round_seconds,
              barriered.execution.overlap_seconds_saved);
  std::printf("  %-12s %10.3f %12.3f %14.3f\n", "pipelined",
              pipelined.wall_seconds,
              pipelined.execution.serialized_round_seconds,
              pipelined.execution.overlap_seconds_saved);
  std::printf("  %-12s %10.3f %12.3f %14.3f\n", "streaming",
              streamed.wall_seconds,
              streamed.execution.serialized_round_seconds,
              streamed.execution.overlap_seconds_saved);
  std::printf("  speedup: %.2fx\n", speedup);
  std::printf("  streaming: %.2fx vs pipelined; peak alloc %lld -> %lld "
              "bytes at 2x depth (%.2fx; monolithic %lld)\n",
              sg.speedup_vs_pipelined,
              static_cast<long long>(sg.peak_alloc_1x),
              static_cast<long long>(sg.peak_alloc_2x), sg.peak_ratio,
              static_cast<long long>(sg.monolithic_peak_2x));

  bool ok = true;
  ok &= bench::Check(identical,
                     "pipelined variants byte-identical to barriered");
  ok &= bench::Check(speedup >= 1.2,
                     "round overlap yields >= 1.2x end-to-end speedup");
  ok &= bench::Check(pipelined.execution.overlap_seconds_saved > 0,
                     "pipelined wall beats the serialized round sum");
  ok &= bench::Check(sg.identical_variants,
                     "streaming variants byte-identical to barriered");
  ok &= bench::Check(sg.speedup_vs_pipelined >= 1.1,
                     "streamed rounds 1+2 yield >= 1.1x over pipelined");
  ok &= bench::Check(sg.peak_ratio <= 1.15,
                     "2x-deeper sample peaks within 1.15x of 1x "
                     "(memory bounded by partition, not depth)");
  ok &= bench::Check(sg.peak_alloc_2x < sg.monolithic_peak_2x,
                     "streamed peak under the monolithic align peak");

  const char* out_path = argc > 1 ? argv[1] : "BENCH_pipeline.json";
  if (std::FILE* f = std::fopen(out_path, "w")) {
    PrintJson(f, barriered, pipelined, speedup, identical, sg);
    std::fclose(f);
    bench::Note(std::string("wrote ") + out_path);
  } else {
    bench::Check(false, std::string("failed to open ") + out_path);
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace gesall

int main(int argc, char** argv) { return gesall::Main(argc, argv); }
