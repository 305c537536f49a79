// The traced pass: per-layer attribution measured from outside the
// program. Spans come from timing the benchmark's own calls (LoadSample,
// each barriered round, the layer replays) plus the round spans and
// TaskRecords the pipeline exposes; counts come from JobCounters,
// DfsStats and ExecutorStats. Nothing inside src/ is instrumented.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <utility>

#include "align/aligner.h"
#include "analysis/mark_duplicates.h"
#include "analysis/steps.h"
#include "e2e.h"
#include "formats/bam.h"
#include "gesall/pipeline_node.h"
#include "util/bgzf.h"
#include "util/crc32c.h"
#include "util/mem.h"
#include "util/stopwatch.h"

namespace gesall::e2e {
namespace {

namespace fs = std::filesystem;

// Executor accounting tag of the traced pass (service job ids are small).
constexpr uint64_t kTraceTag = 0xE2E0'0000'0000'0001ULL;

// Each replay repeats until its timed work reaches this, so fast layers
// still give a steady rate.
constexpr double kReplaySeconds = 0.1;

// One span, in seconds since the traced pass started.
struct Span {
  std::string name;
  std::string cat;
  double start = 0;
  double end = 0;
  int lane = 0;
  std::vector<std::pair<std::string, double>> args;
};

// A round as the pass saw it: its wall span and the MR jobs run in it
// (barriered round 3 runs the bloom pre-round and the markdup job).
struct RoundSpan {
  double start = 0;
  double end = 0;
  std::vector<RoundStats> jobs;
};

// The rounds every workload has: rounds 1+2 fuse when streamed, and the
// bloom pre-round belongs to round 3. Skew is taken over the tasks that
// do the round's work: the first job's maps (alignment, calling) or the
// last job's reduces (duplicate marking, sorting).
struct LogicalRound {
  const char* name;
  const char* prefix_a;
  const char* prefix_b;
  bool skew_on_reduces;
};
constexpr LogicalRound kLogicalRounds[] = {
    {"r12", "round1_", "round2_", false},
    {"r3", "round3_", "round3_", true},
    {"r4_sort", "round4_", "round4_", true},
    {"r5_call", "round5_", "round5_", false},
};

bool InLogicalRound(const LogicalRound& lr, const RoundSpan& span) {
  const std::string& name = span.jobs.back().name;
  return name.rfind(lr.prefix_a, 0) == 0 || name.rfind(lr.prefix_b, 0) == 0;
}

double MaxTaskEnd(const RoundStats& job) {
  double end = 0;
  for (const auto& t : job.tasks) end = std::max(end, t.end_seconds);
  return end;
}

// Task spans of a round on the pass clock: each job's records are on
// that job's own clock, so jobs are laid end to end from the span start.
std::vector<Span> TaskSpans(const RoundSpan& round) {
  std::vector<Span> out;
  double offset = round.start;
  for (const auto& job : round.jobs) {
    for (const auto& t : job.tasks) {
      Span s;
      const bool map = t.type == TaskRecord::Type::kMap;
      s.name = job.name + (map ? ".map" : ".reduce") + std::to_string(t.index);
      s.cat = "task";
      s.start = offset + t.start_seconds;
      s.end = offset + t.end_seconds;
      s.args = {{"input_bytes", static_cast<double>(t.input_bytes)},
                {"output_bytes", static_cast<double>(t.output_bytes)},
                {"attempt", static_cast<double>(t.attempt)}};
      out.push_back(std::move(s));
    }
    offset += MaxTaskEnd(job);
  }
  return out;
}

// Length of the union of [start, end) intervals.
double Covered(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0, cur_start = 0, cur_end = -1;
  for (const auto& [s, e] : iv) {
    if (s > cur_end) {
      if (cur_end > cur_start) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > cur_start) total += cur_end - cur_start;
  return total;
}

// Greedy interval partitioning so spans sharing a lane never overlap
// (trace viewers require proper nesting per thread).
void AssignLanes(std::vector<Span*> spans, int first_lane) {
  std::sort(spans.begin(), spans.end(),
            [](const Span* a, const Span* b) { return a->start < b->start; });
  std::vector<double> lane_end;
  for (Span* s : spans) {
    size_t lane = 0;
    while (lane < lane_end.size() && lane_end[lane] > s->start) ++lane;
    if (lane == lane_end.size()) lane_end.push_back(0);
    lane_end[lane] = s->end;
    s->lane = first_lane + static_cast<int>(lane);
  }
}

Status WriteChromeTrace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": %s, \"cat\": %s, \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {",
                 JsonString(s.name).c_str(), JsonString(s.cat).c_str(),
                 s.start * 1e6, (s.end - s.start) * 1e6, s.lane);
    for (size_t a = 0; a < s.args.size(); ++a) {
      std::fprintf(f, "%s%s: %.17g", a ? ", " : "",
                   JsonString(s.args[a].first).c_str(), s.args[a].second);
    }
    std::fprintf(f, "}}%s\n", i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) return Status::IOError("cannot write " + path);
  return Status::OK();
}

// Runs `prepare` untimed and `body` timed until the timed total reaches
// kReplaySeconds; returns units per second of timed work.
double Rate(double units, const std::function<void()>& prepare,
            const std::function<void()>& body) {
  double timed = 0;
  int reps = 0;
  while (reps == 0 || timed < kReplaySeconds) {
    prepare();
    Stopwatch clock;
    body();
    timed += clock.ElapsedSeconds();
    ++reps;
  }
  return units * reps / timed;
}

PipelineConfig TracedConfig(const TraceContext& ctx) {
  PipelineConfig c = MakePipelineConfig(*ctx.workload, ctx.executor);
  if (ctx.workload->mode == Mode::kService) {
    // What gesalld sets for every job on a durable log (service.cc).
    c.write_manifests = true;
    c.resume = true;
    c.preserve_outputs_on_cancel = true;
  }
  return c;
}

// The pass: LoadSample, then the rounds. Barriered configs call each
// round on its own so its span includes the serial tail and manifest
// seal; overlapped configs run RunAll and take the pipeline's spans.
struct PassRun {
  double wall = 0;
  double load = 0;
  std::vector<RoundSpan> rounds;
  Digest digest;
};

Result<PassRun> RunPassTraced(GesallPipeline* pipeline, const Sample& sample,
                              const Stopwatch& clock, bool barriered) {
  PassRun run;
  const double t0 = clock.ElapsedSeconds();
  GESALL_RETURN_NOT_OK(pipeline->LoadSample(sample.mate1, sample.mate2));
  run.load = clock.ElapsedSeconds() - t0;
  std::vector<VariantRecord> variants;
  if (barriered) {
    const std::vector<std::function<Status()>> rounds = {
        [&] { return pipeline->RunRound1Alignment(); },
        [&] { return pipeline->RunRound2Cleaning(); },
        [&] { return pipeline->RunRound3MarkDuplicates(); },
        [&] { return pipeline->RunRound4Sort(); },
        [&] {
          GESALL_ASSIGN_OR_RETURN(variants,
                                  pipeline->RunRound5VariantCalling());
          return Status::OK();
        },
    };
    for (const auto& round : rounds) {
      const size_t before = pipeline->stats().size();
      RoundSpan span;
      span.start = clock.ElapsedSeconds();
      GESALL_RETURN_NOT_OK(round());
      span.end = clock.ElapsedSeconds();
      const auto& stats = pipeline->stats();
      span.jobs.assign(stats.begin() + static_cast<long>(before),
                       stats.end());
      run.rounds.push_back(std::move(span));
    }
  } else {
    const double r0 = clock.ElapsedSeconds();
    GESALL_ASSIGN_OR_RETURN(variants, pipeline->RunAll());
    for (const auto& r : pipeline->SummarizeExecution().rounds) {
      RoundSpan span;
      span.start = r0 + r.start_seconds;
      span.end = r0 + r.end_seconds;
      for (const auto& stats : pipeline->stats()) {
        if (stats.name == r.name) span.jobs.push_back(stats);
      }
      run.rounds.push_back(std::move(span));
    }
  }
  run.wall = clock.ElapsedSeconds() - t0;
  run.digest = DigestOf(variants);
  return run;
}

Status CheckDigest(const Reference& ref, const Digest& got) {
  if (ref.digest.variants > 0 && ref.digest == got) return Status::OK();
  return Status::Internal("traced pass variants differ from the reference (" +
                          std::to_string(got.variants) + " vs " +
                          std::to_string(ref.digest.variants) + " calls)");
}

struct TableRow {
  std::string layer;
  std::string what;
  int64_t count = 0;
  double self_s = 0;
};

}  // namespace

Status RunTracedPass(const TraceContext& ctx, const UntracedSummary& untraced,
                     WorkloadResult* result) {
  const Workload& w = *ctx.workload;
  Executor* executor = ctx.executor;
  const Sample sample = MakeSample(w, *ctx.genome, ctx.seed, kTracedIndex);
  GESALL_ASSIGN_OR_RETURN(
      Reference ref,
      ReferenceFor(w, *ctx.genome, *ctx.index, executor, sample));
  const PipelineConfig config = TracedConfig(ctx);
  const bool barriered = !config.pipelined || config.resume;

  // Untraced pass on the same sample: the base of trace.overhead_frac.
  double untraced_wall = 0;
  {
    const std::string root = (fs::path(ctx.tmp_dir) / "untraced").string();
    fs::remove_all(root);
    Dfs dfs(MakeDfsOptions(w, root));
    GesallPipeline pipeline(ctx.genome->reference, *ctx.index, &dfs, config);
    Stopwatch clock;
    GESALL_RETURN_NOT_OK(pipeline.LoadSample(sample.mate1, sample.mate2));
    GESALL_ASSIGN_OR_RETURN(std::vector<VariantRecord> variants,
                            pipeline.RunAll());
    untraced_wall = clock.ElapsedSeconds();
    GESALL_RETURN_NOT_OK(CheckDigest(ref, DigestOf(variants)));
  }

  const std::string root = (fs::path(ctx.tmp_dir) / "traced").string();
  fs::remove_all(root);
  Dfs dfs(MakeDfsOptions(w, root));
  GesallPipeline pipeline(ctx.genome->reference, *ctx.index, &dfs, config);
  const ExecutorStats exec0 = executor->stats();
  const Stopwatch clock;
  PassRun pass;
  {
    Executor::TagScope tag(kTraceTag);
    GESALL_ASSIGN_OR_RETURN(pass,
                            RunPassTraced(&pipeline, sample, clock, barriered));
  }
  const ExecutorStats exec1 = executor->stats();
  const double rss_after_pass_mb =
      static_cast<double>(CurrentRssBytes()) / (1024.0 * 1024.0);
  GESALL_RETURN_NOT_OK(CheckDigest(ref, pass.digest));

  // ---- Spans of the pass.
  std::vector<Span> spans;
  spans.push_back({"pass", "pass", 0, pass.wall, 0, {}});
  spans.push_back({"LoadSample", "dfs", 0, pass.load, 0, {}});
  std::vector<Span> round_spans, task_spans;
  for (const auto& r : pass.rounds) {
    round_spans.push_back({r.jobs.back().name, "round", r.start, r.end, 0, {}});
    for (auto& t : TaskSpans(r)) task_spans.push_back(std::move(t));
  }
  std::vector<Span*> lanes;
  for (auto& s : round_spans) lanes.push_back(&s);
  AssignLanes(lanes, 1);
  lanes.clear();
  for (auto& s : task_spans) lanes.push_back(&s);
  AssignLanes(lanes, 16);

  // ---- Pass-level counters.
  JobCounters counters;
  for (const auto& r : pass.rounds) {
    for (const auto& job : r.jobs) counters.Merge(job.counters);
  }
  const DfsStats dstats = dfs.stats();
  const double program_s = counters.Get("program_micros") / 1e6;
  const double transform_s = counters.Get("transform_micros") / 1e6;
  const double shuffle_codec_s = (counters.Get("shuffle_compress_micros") +
                                  counters.Get("shuffle_decompress_micros")) /
                                 1e6;
  const double dfs_codec_s =
      static_cast<double>(dstats.compress_micros + dstats.decompress_micros) /
      1e6;

  auto& m = result->per_layer;
  auto add = [&m](std::string name, const char* unit, double value) {
    m.push_back({std::move(name), unit, value});
  };

  // ---- gesall: the four logical rounds.
  double task_busy_total = 0, round_span_total = 0;
  std::vector<std::pair<double, double>> round_cover, task_cover;
  for (const auto& lr : kLogicalRounds) {
    double wall = 0, busy = 0, last_ends = 0, attributed = 0;
    std::vector<double> skew_tasks;
    bool first_job = true;
    for (const auto& r : pass.rounds) {
      if (!InLogicalRound(lr, r)) continue;
      wall += r.end - r.start;
      round_cover.push_back({r.start, r.end});
      for (const auto& t : TaskSpans(r)) task_cover.push_back({t.start, t.end});
      for (size_t j = 0; j < r.jobs.size(); ++j) {
        const RoundStats& job = r.jobs[j];
        last_ends += MaxTaskEnd(job);
        attributed += (job.counters.Get("program_micros") +
                       job.counters.Get("transform_micros") +
                       job.counters.Get("shuffle_compress_micros") +
                       job.counters.Get("shuffle_decompress_micros")) /
                      1e6;
        const bool skew_job = lr.skew_on_reduces ? j + 1 == r.jobs.size()
                                                 : first_job && j == 0;
        for (const auto& t : job.tasks) {
          const double d = t.end_seconds - t.start_seconds;
          busy += d;
          const bool reduce = t.type == TaskRecord::Type::kReduce;
          if (skew_job && reduce == lr.skew_on_reduces) {
            skew_tasks.push_back(d);
          }
        }
      }
      first_job = false;
    }
    task_busy_total += busy;
    round_span_total += wall;
    const double median = Quantile(skew_tasks, 0.5);
    const double longest =
        skew_tasks.empty()
            ? 0
            : *std::max_element(skew_tasks.begin(), skew_tasks.end());
    const std::string p = std::string("gesall.") + lr.name;
    add(p + ".wall_s", "s", wall);
    add(p + ".task_busy_s", "s", busy);
    add(p + ".tail_s", "s", wall - last_ends);
    add(p + ".skew", "ratio", median > 0 ? longest / median : 1.0);
    add(p + ".unattributed_frac", "fraction",
        busy > 0 ? 1.0 - attributed / busy : 0.0);
  }
  add("gesall.pass_wall_s", "s", pass.wall);
  add("gesall.overlap_s", "s", round_span_total - (pass.wall - pass.load));

  // ---- Replays on the traced pass's data, after the pass.
  double at = clock.ElapsedSeconds();
  auto replay_span = [&](const char* name, const char* cat) {
    const double now = clock.ElapsedSeconds();
    spans.push_back({name, cat, at, now, 0, {}});
    at = now;
  };
  GESALL_ASSIGN_OR_RETURN(std::vector<FastqRecord> interleaved,
                          InterleavePairs(sample.mate1, sample.mate2));
  const size_t pairs0 =
      interleaved.size() / 2 / static_cast<size_t>(std::max(1, w.partitions));
  const std::vector<FastqRecord> part0(
      interleaved.begin(), interleaved.begin() + static_cast<long>(2 * pairs0));

  // Node graph: one partition through align -> clean on the executor.
  AlignCleanStreamOptions sopts;
  sopts.executor = executor;
  sopts.header = &pipeline.header();
  sopts.read_group = config.read_group;
  AlignCleanStreamStats sstats;
  Stopwatch stream_clock;
  GESALL_RETURN_NOT_OK(RunAlignCleanStream(
      *ctx.index, config.aligner, part0, sopts,
      [](RecordBatch*) { return Status::OK(); }, &sstats));
  const double stream_s = stream_clock.ElapsedSeconds();
  // Producers never found a queue full on these workloads, so only the
  // consumer side (pop) stall is reported.
  int64_t pop_stall = 0, max_depth = 0;
  for (const auto& e : sstats.edges) {
    pop_stall += e.queue.pop_stall_micros;
    max_depth = std::max(max_depth, e.queue.max_depth);
  }
  add("gesall.stream.pop_stall_s", "s", pop_stall / 1e6);
  add("gesall.stream.max_depth", "count", static_cast<double>(max_depth));
  add("gesall.stream.reads_per_s", "1/s",
      static_cast<double>(sstats.reads) / stream_s);
  replay_span("replay.stream", "replay");

  // align: single-thread AlignPairs on the same partition.
  PairedEndAligner aligner(*ctx.index, config.aligner);
  std::vector<SamRecord> aligned;
  add("align.pairs_per_s", "1/s",
      Rate(static_cast<double>(pairs0), [&] { aligned.clear(); },
           [&] {
             PairedAlignScratch scratch;
             aligner.AlignPairs(part0, &scratch, &aligned);
           }));
  add("align.kernel_calls", "count",
      static_cast<double>(counters.Get("align_kernel_calls")));
  add("align.band_cells_skipped", "count",
      static_cast<double>(counters.Get("align_band_cells_skipped")));
  replay_span("replay.align", "replay");

  // The first partition of the pass's cleaned stage feeds the
  // MarkDuplicates, BAM and codec replays (its records are grouped by
  // read name, as MarkDuplicates requires).
  std::string bam;
  for (const auto& path : dfs.List(config.dfs_root + "/cleaned/")) {
    if (path.size() > 4 && path.compare(path.size() - 4, 4, ".bam") == 0) {
      GESALL_ASSIGN_OR_RETURN(bam, dfs.Read(path));
      break;
    }
  }
  GESALL_ASSIGN_OR_RETURN(auto cleaned_part, ReadBam(bam));
  const std::vector<SamRecord>& cleaned = cleaned_part.second;

  // analysis: CleanSam on those alignments, MarkDuplicates on the
  // cleaned partition, and the callers' own time in the pass.
  std::vector<SamRecord> work;
  SamHeader header = aligner.MakeHeader();
  add("analysis.cleansam_records_per_s", "1/s",
      Rate(static_cast<double>(aligned.size()),
           [&] {
             work = aligned;
             header = aligner.MakeHeader();
           },
           [&] {
             (void)AddReplaceReadGroups(config.read_group, &header, &work);
             (void)CleanSam(header, &work);
           }));
  add("analysis.markdup_records_per_s", "1/s",
      Rate(static_cast<double>(cleaned.size()), [&] { work = cleaned; },
           [&] { (void)MarkDuplicates(&work); }));
  int64_t hc_micros = 0;
  for (const auto& r : pass.rounds) {
    for (const auto& job : r.jobs) {
      if (job.name.rfind("round5_", 0) == 0) {
        hc_micros += job.counters.Get("program_micros");
      }
    }
  }
  add("analysis.hc_program_s", "s", hc_micros / 1e6);
  replay_span("replay.analysis", "replay");

  // formats: BAM encode/decode of the cleaned partition.
  add("formats.transform_s", "s", transform_s);
  const double bam_mb = static_cast<double>(bam.size()) / 1e6;
  add("formats.bam_encode_mb_per_s", "MB/s",
      Rate(bam_mb, [] {},
           [&] { (void)WriteBam(pipeline.header(), cleaned); }));
  add("formats.bam_decode_mb_per_s", "MB/s",
      Rate(bam_mb, [] {}, [&] { (void)ReadBam(bam); }));
  replay_span("replay.formats", "replay");

  // mr: shuffle and retry counters of the pass.
  add("mr.shuffle_bytes", "B",
      static_cast<double>(counters.Get("reduce_shuffle_bytes")));
  add("mr.shuffle_records", "count",
      static_cast<double>(counters.Get("reduce_shuffle_records")));
  add("mr.spills", "count", static_cast<double>(counters.Get("map_spills")));
  add("mr.task_retries", "count",
      static_cast<double>(counters.Get("map_task_retries") +
                          counters.Get("reduce_task_retries")));

  // codec: the pass's codec share and ratio, then BGZF and CRC32C on the
  // cleaned partition's record bytes at the workload's level.
  const int64_t shuffle_compressed =
      counters.Get("shuffle_spill_bytes_compressed");
  const int64_t shuffle_raw = shuffle_compressed > 0
                                  ? counters.Get("shuffle_spill_bytes_raw")
                                  : counters.Get("reduce_shuffle_bytes");
  const int64_t shuffle_stored =
      shuffle_compressed > 0 ? shuffle_compressed : shuffle_raw;
  add("codec.pass_share", "fraction",
      task_busy_total > 0 ? (shuffle_codec_s + dfs_codec_s) / task_busy_total
                          : 0.0);
  add("codec.ratio", "ratio",
      static_cast<double>(dstats.bytes_written_raw + shuffle_raw) /
          static_cast<double>(
              std::max<int64_t>(1, dstats.bytes_written_stored +
                                       shuffle_stored)));
  GESALL_ASSIGN_OR_RETURN(std::string raw, DecompressBamRecords(bam));
  const int level = w.mode == Mode::kBarrieredCodec ? 1 : kBgzfDefaultLevel;
  const double raw_mb = static_cast<double>(raw.size()) / 1e6;
  std::string compressed;
  add("codec.bgzf_compress_mb_per_s", "MB/s",
      Rate(raw_mb, [&] { compressed.clear(); },
           [&] {
             BgzfWriter writer(&compressed, level);
             (void)writer.Append(raw);
             (void)writer.Flush();
           }));
  std::string inflated;
  add("codec.bgzf_decompress_mb_per_s", "MB/s",
      Rate(raw_mb, [&] { inflated.clear(); },
           [&] {
             (void)BgzfReadRange(compressed, 0, raw.size(), &inflated);
           }));
  if (inflated != raw) return Status::Internal("BGZF replay round trip");
  const uint32_t crc = Crc32c(raw);
  bool crc_stable = true;
  add("codec.crc32c_mb_per_s", "MB/s",
      Rate(raw_mb, [] {}, [&] { crc_stable &= Crc32c(raw) == crc; }));
  if (!crc_stable) return Status::Internal("CRC32C replay unstable");
  replay_span("replay.codec", "replay");

  // dfs: the pass's own counters, then every file the pass left written
  // to and read back from a fresh durable Dfs with the workload options.
  add("dfs.load_sample_s", "s", pass.load);
  add("dfs.bytes_written_raw", "B",
      static_cast<double>(dstats.bytes_written_raw));
  add("dfs.bytes_written_stored", "B",
      static_cast<double>(dstats.bytes_written_stored));
  add("dfs.journal_records", "count",
      static_cast<double>(dstats.journal_records_appended));
  {
    std::vector<std::pair<std::string, std::string>> files;
    double mb = 0;
    for (const auto& path : dfs.List("/")) {
      GESALL_ASSIGN_OR_RETURN(std::string data, dfs.Read(path));
      mb += static_cast<double>(data.size()) / 1e6;
      files.emplace_back(path, std::move(data));
    }
    const std::string replay_root =
        (fs::path(ctx.tmp_dir) / "replay-dfs").string();
    fs::remove_all(replay_root);
    Dfs fresh(MakeDfsOptions(w, replay_root));
    Stopwatch write_clock;
    for (const auto& [path, data] : files) {
      GESALL_RETURN_NOT_OK(fresh.Write(path, data));
    }
    add("dfs.write_mb_per_s", "MB/s", mb / write_clock.ElapsedSeconds());
    Stopwatch read_clock;
    for (const auto& [path, data] : files) {
      GESALL_ASSIGN_OR_RETURN(std::string back, fresh.Read(path));
      if (back != data) return Status::Internal("DFS replay mismatch " + path);
    }
    add("dfs.read_mb_per_s", "MB/s", mb / read_clock.ElapsedSeconds());
  }
  replay_span("replay.dfs", "replay");

  // executor: the traced pass's share of the shared executor.
  const double busy_s = executor->tag_stats(kTraceTag).busy_micros / 1e6;
  add("executor.tasks", "count",
      static_cast<double>(exec1.tasks_executed - exec0.tasks_executed));
  add("executor.steals", "count",
      static_cast<double>(exec1.steals - exec0.steals));
  add("executor.queue_wait_s", "s",
      (exec1.queue_wait_micros - exec0.queue_wait_micros) / 1e6);
  add("executor.busy_frac", "fraction",
      busy_s / (executor->num_threads() * pass.wall));

  // service: operation-level numbers of the untraced run. For pipeline
  // passes a pass is the operation: there is no queue or job log, and
  // its executor busy time is the traced pass's.
  add("service.run_s_p50", "s", untraced.wall_p50);
  add("service.queue_frac", "fraction", untraced.queue_frac);
  add("service.busy_s_per_job", "s",
      untraced.busy_s_per_job > 0 ? untraced.busy_s_per_job : busy_s);
  add("service.journal_records_per_job", "count",
      untraced.journal_records_per_job);
  add("service.overhead_s", "s", untraced.job_p50 - untraced.reference_p50);

  // baseline: the serial single-thread pipeline on the same sample.
  Stopwatch serial_clock;
  GESALL_ASSIGN_OR_RETURN(
      SerialStageOutputs serial,
      RunSerialPipeline(ctx.genome->reference, *ctx.index, interleaved));
  const double serial_s = serial_clock.ElapsedSeconds();
  if (serial.variants.empty()) return Status::Internal("serial run: no calls");
  replay_span("replay.serial_baseline", "replay");
  add("baseline.serial_wall_s", "s", serial_s);
  add("baseline.speedup", "ratio", serial_s / untraced_wall);
  add("mem.rss_after_pass_mb", "MB", rss_after_pass_mb);
  add("trace.overhead_frac", "fraction", pass.wall / untraced_wall - 1.0);

  // ---- Chrome trace and the per-layer table.
  for (auto& s : round_spans) spans.push_back(std::move(s));
  for (auto& s : task_spans) spans.push_back(std::move(s));
  if (!ctx.trace_path.empty()) {
    GESALL_RETURN_NOT_OK(WriteChromeTrace(ctx.trace_path, spans));
  }
  const double union_rounds = Covered(round_cover);
  std::vector<std::pair<double, double>> busy_cover = round_cover;
  busy_cover.insert(busy_cover.end(), task_cover.begin(), task_cover.end());
  // Round time when no task of any round ran: partition BAM builds and
  // DFS writes (partition-output callbacks run after their reduce task's
  // record closes; barriered rounds write on the calling thread), barrier
  // tails and manifest seals.
  const double round_serial_s = Covered(busy_cover) - Covered(task_cover);
  std::vector<TableRow> rows = {
      {"dfs", "LoadSample", 1, pass.load},
      {"gesall", "no task running: partition writes, tails",
       int64_t(pass.rounds.size()), round_serial_s},
      {"align+analysis", "wrapped programs (program_micros)",
       int64_t(task_spans.size()), program_s},
      {"formats", "record transforms (transform_micros)",
       int64_t(task_spans.size()), transform_s},
      {"codec", "shuffle + DFS part codec", int64_t(task_spans.size()),
       shuffle_codec_s + dfs_codec_s},
      {"unattributed", "task time not in program/transform/codec",
       int64_t(task_spans.size()),
       task_busy_total - program_s - transform_s - shuffle_codec_s},
      {"unattributed", "pass time outside LoadSample and rounds", 1,
       pass.wall - pass.load - union_rounds},
  };
  for (const Span& s : spans) {
    if (s.cat == "replay") {
      rows.push_back({"replay", s.name, 1, s.end - s.start});
    }
  }
  std::printf("  per-layer (traced pass %.3f s; task rows sum over "
              "concurrent tasks, so shares can exceed 100%%)\n",
              pass.wall);
  std::printf("    %-14s %-42s %7s %10s %8s\n", "layer", "what", "count",
              "self_s", "share");
  for (const auto& r : rows) {
    std::printf("    %-14s %-42s %7lld %10.4f %7.1f%%\n", r.layer.c_str(),
                r.what.c_str(), static_cast<long long>(r.count), r.self_s,
                100.0 * r.self_s / pass.wall);
  }
  fs::remove_all(fs::path(ctx.tmp_dir) / "replay-dfs");
  return Status::OK();
}

}  // namespace gesall::e2e
