// Workload table, input generation, set-up, the untraced operations and
// their correctness check, and the end-to-end metrics.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <thread>

#include "e2e.h"
#include "genome/read_simulator.h"
#include "genome/reference_generator.h"
#include "service/service.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace gesall::e2e {
namespace {

namespace fs = std::filesystem;

uint64_t Fnv1a(std::string_view s, uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t FamilySeed(const Workload& w, uint64_t seed) {
  return MixSeeds(seed, Fnv1a(w.family));
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Executor width: one core is left to the process's other threads (the
// service's runners and heartbeat, the second client) and to the
// system. Saturating every core of a shared VM made run-to-run spread
// several times wider than the bounds in BENCHMARK.json.
int NumThreads() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, cores - 1);
}

JobCounters MergedCounters(const GesallPipeline& pipeline) {
  JobCounters merged;
  for (const auto& round : pipeline.stats()) merged.Merge(round.counters);
  return merged;
}

// Operation indices of the warm-up read sets (outside the timed range).
constexpr uint64_t kWarmupIndex = 1ULL << 41;

// Process CPU (user + sys) seconds so far.
double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// Peak RSS of the process in MB.
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// The family's reference genome and donor; the seed picks both.
Genome MakeGenome(const Workload& w, uint64_t seed) {
  const uint64_t family = FamilySeed(w, seed);
  Genome g;
  ReferenceGeneratorOptions ro;
  ro.num_chromosomes = w.chromosomes;
  ro.chromosome_length = w.chromosome_length;
  ro.seed = family;
  g.reference = GenerateReference(ro);
  VariantPlanterOptions vo;
  vo.seed = MixSeeds(family, 1);
  g.donor = PlantVariants(g.reference, vo);
  return g;
}

// Shuffle bytes as stored: the compressed spill frames when the codec
// is on, else the raw bytes the reducers fetch.
int64_t ShuffleStoredBytes(const JobCounters& c) {
  const int64_t compressed = c.Get("shuffle_spill_bytes_compressed");
  return compressed > 0 ? compressed : c.Get("reduce_shuffle_bytes");
}

// Every set-up object of one workload. Reset() tears them down in
// dependency order: the service drains before its Dfs goes, and the
// executor outlives everything that submits to it.
struct Env {
  Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;
  ~Env() { Reset(); }

  std::unique_ptr<Executor> executor;
  std::unique_ptr<GenomeIndex> index;
  std::unique_ptr<Dfs> service_dfs;
  std::unique_ptr<GesallService> service;

  void Reset() {
    service.reset();
    service_dfs.reset();
    index.reset();
    executor.reset();
  }
};

// Outcome of one operation.
struct Op {
  uint64_t index = 0;
  int64_t pairs = 0;
  double wall = 0;     // LoadSample + RunAll, or the job's run time
  double latency = 0;  // Submit -> Wait (== wall for passes)
  double queue = 0;
  double cpu = 0;
  int64_t disk_bytes = 0;
  int64_t busy_micros = 0;
  bool ok = false;
  std::string error;
  Digest digest;
};

std::string OpRoot(const Options& opt, const Workload& w,
                   const std::string& leaf) {
  return (fs::path(opt.tmp_dir) / w.name / leaf).string();
}

// One pipeline pass on a fresh durable Dfs under `root`.
Op RunPass(const Workload& w, const Genome& g, const GenomeIndex& index,
           Executor* executor, const Sample& sample, const std::string& root) {
  Op op;
  op.pairs = sample.pairs();
  Dfs dfs(MakeDfsOptions(w, root));
  GesallPipeline pipeline(g.reference, index, &dfs,
                          MakePipelineConfig(w, executor));
  const double cpu0 = ProcessCpuSeconds();
  Stopwatch clock;
  Status st = pipeline.LoadSample(sample.mate1, sample.mate2);
  Result<std::vector<VariantRecord>> variants =
      st.ok() ? pipeline.RunAll() : Result<std::vector<VariantRecord>>(st);
  op.wall = clock.ElapsedSeconds();
  op.cpu = ProcessCpuSeconds() - cpu0;
  op.latency = op.wall;
  op.disk_bytes = dfs.stats().bytes_written_stored +
                  ShuffleStoredBytes(MergedCounters(pipeline));
  if (variants.ok()) {
    op.ok = true;
    op.digest = DigestOf(variants.ValueOrDie());
  } else {
    op.error = variants.status().ToString();
  }
  return op;
}

// Compares an operation's calls with its reference run. Returns false
// and fills op->error on any mismatch.
bool CheckAgainstReference(const Workload& w, const Genome& g,
                           const GenomeIndex& index, Executor* executor,
                           const Options& opt, Op* op,
                           std::vector<double>* reference_seconds) {
  if (!op->ok) return false;
  const Sample sample = MakeSample(w, g, opt.seed, op->index);
  Result<Reference> ref = ReferenceFor(w, g, index, executor, sample);
  if (!ref.ok()) {
    op->ok = false;
    op->error = "reference run failed: " + ref.status().ToString();
    return false;
  }
  reference_seconds->push_back(ref.ValueOrDie().seconds);
  Digest expected = ref.ValueOrDie().digest;
  // The smoke test's self-check: a tampered reference must be caught.
  if (opt.tamper && op->index == 0) expected.hash ^= 1;
  if (expected.variants == 0 || !(expected == op->digest)) {
    op->ok = false;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "variants differ from the reference (%lld vs %lld calls)",
                  static_cast<long long>(op->digest.variants),
                  static_cast<long long>(expected.variants));
    op->error = buf;
    return false;
  }
  return true;
}

// One set-up: executor, index, (service + its durable Dfs), and a
// warm-up operation on a small sample of its own. Returns its seconds.
Result<double> SetUp(const Workload& w, const Genome& g, const Options& opt,
                     int rep, Env* env) {
  const std::string root = OpRoot(opt, w, "setup-" + std::to_string(rep));
  fs::remove_all(root);
  Sample warm = MakeSample(w, g, opt.seed, kWarmupIndex + rep,
                           w.mode == Mode::kService ? 1.0 : 0.125);
  Stopwatch clock;
  env->executor = std::make_unique<Executor>(NumThreads());
  env->index = std::make_unique<GenomeIndex>(g.reference);
  if (w.mode == Mode::kService) {
    env->service_dfs = std::make_unique<Dfs>(MakeDfsOptions(w, root));
    ServiceConfig sc;
    sc.executor = env->executor.get();
    sc.durability.root_dir = root;
    env->service = std::make_unique<GesallService>(
        g.reference, *env->index, env->service_dfs.get(), sc);
    GESALL_RETURN_NOT_OK(env->service->recovery_status());
    JobSpec spec;
    spec.tenant = "warmup";
    spec.mate1 = std::move(warm.mate1);
    spec.mate2 = std::move(warm.mate2);
    spec.pipeline = MakePipelineConfig(w, env->executor.get());
    GESALL_ASSIGN_OR_RETURN(JobId id, env->service->Submit(std::move(spec)));
    GESALL_ASSIGN_OR_RETURN(JobOutput out, env->service->Wait(id));
    GESALL_RETURN_NOT_OK(out.status);
    return clock.ElapsedSeconds();
  }
  Op op = RunPass(w, g, *env->index, env->executor.get(), warm, root);
  const double seconds = clock.ElapsedSeconds();
  fs::remove_all(root);
  if (!op.ok) return Status::Internal("warm-up pass failed: " + op.error);
  return seconds;
}

// The gesalld closed loop: two tenants, each with one job outstanding,
// each submitting its next job only after its previous one returned.
// The main thread is one tenant; one generator thread is the other.
struct LoopOutcome {
  std::vector<Op> ops;
  double wall = 0;
  double cpu = 0;  // process cpu minus the clients' input generation
  double rss = 0;
  int64_t dfs_bytes = 0;
  int64_t journal_records = 0;
};

LoopOutcome RunServiceLoop(const Workload& w, const Genome& g,
                           const Options& opt, Env* env) {
  GesallService& service = *env->service;
  Dfs& dfs = *env->service_dfs;
  LoopOutcome out;
  std::mutex mu;
  double generation_cpu = 0;  // guarded by mu
  std::atomic<uint64_t> next_index{0};
  std::atomic<int64_t> completed{0};
  const int64_t dfs_bytes0 = dfs.stats().bytes_written_stored;
  const int64_t journal0 = service.stats().journal_records_appended;
  const double cpu0 = ProcessCpuSeconds();
  Stopwatch loop;

  auto client = [&](const std::string& tenant) {
    for (;;) {
      if (completed.load() >= w.min_ops &&
          loop.ElapsedSeconds() >= opt.seconds) {
        return;
      }
      Op op;
      op.index = next_index.fetch_add(1);
      const double gen0 = ThreadCpuSeconds();
      Sample sample = MakeSample(w, g, opt.seed, op.index);
      const double gen = ThreadCpuSeconds() - gen0;
      op.pairs = sample.pairs();
      JobSpec spec;
      spec.tenant = tenant;
      spec.mate1 = std::move(sample.mate1);
      spec.mate2 = std::move(sample.mate2);
      spec.pipeline = MakePipelineConfig(w, env->executor.get());
      Stopwatch latency;
      Result<JobId> id = service.Submit(std::move(spec));
      if (!id.ok()) {
        op.error = "refused: " + id.status().ToString();
      } else {
        Result<JobOutput> job = service.Wait(id.ValueOrDie());
        op.latency = latency.ElapsedSeconds();
        if (!job.ok()) {
          op.error = job.status().ToString();
        } else {
          const JobOutput& o = job.ValueOrDie();
          op.wall = o.run_seconds;
          op.queue = o.queue_seconds;
          op.busy_micros = o.busy_micros;
          op.disk_bytes = ShuffleStoredBytes(o.counters);
          op.ok = o.status.ok();
          if (op.ok) {
            op.digest = DigestOf(o.variants);
          } else {
            op.error = o.status.ToString();
          }
        }
        // A user fetches the calls and deletes the job's namespace, so
        // the Dfs stays at a steady size however many jobs the loop runs.
        const std::string prefix = "/jobs/" + tenant + "/job-" +
                                   std::to_string(id.ValueOrDie()) + "/";
        for (const auto& path : dfs.List(prefix)) (void)dfs.Delete(path);
      }
      std::lock_guard<std::mutex> lock(mu);
      out.ops.push_back(std::move(op));
      generation_cpu += gen;
      completed.fetch_add(1);
    }
  };
  std::jthread generator(client, "tenant-b");
  client("tenant-a");
  generator.join();
  out.wall = loop.ElapsedSeconds();
  out.cpu = ProcessCpuSeconds() - cpu0 - generation_cpu;
  // The daemon's steady state: read after the whole loop.
  out.rss = PeakRssMb();
  out.dfs_bytes = dfs.stats().bytes_written_stored - dfs_bytes0;
  out.journal_records = service.stats().journal_records_appended - journal0;
  std::sort(out.ops.begin(), out.ops.end(),
            [](const Op& a, const Op& b) { return a.index < b.index; });
  return out;
}

void AddMetric(std::vector<Metric>* out, const char* name, const char* unit,
               double value) {
  out->push_back({name, unit, value});
}

}  // namespace

std::vector<Workload> Workloads(bool smoke) {
  // Sizes let one run repeat each operation several times in about 25 s
  // on a 4-core machine. A pass's time mix is the same at 4x the pairs
  // (README.md, "What the traced pass shows"), so the samples are small.
  std::vector<Workload> table = {
      // Streamed pass: the node graph overlaps later rounds; about half
      // the wall has no task running (partition BAM builds and writes).
      {"wgs_streamed", Mode::kStreamed, "wgs", 2, 60'000, 25.0, 0.02, 8, 5},
      // Same inputs, barriered with level-1 codec: the codec takes about
      // a third of task time and serial round tails half the wall.
      {"wgs_barriered_codec", Mode::kBarrieredCodec, "wgs", 2, 60'000, 25.0,
       0.02, 8, 3},
      // 2.4x depth, 15% duplicates, one chromosome: a single sort and a
      // single calling partition, and many more duplicates to mark.
      {"deep_one_chrom", Mode::kStreamed, "deep", 1, 60'000, 60.0, 0.15, 8, 5},
      // Small durable jobs: per-job fixed costs of DFS namespace ops,
      // journal fsyncs and round set-up; >= 100 jobs for a p90.
      {"service_small_jobs", Mode::kService, "service", 1, 25'000, 6.0, 0.02,
       2, 100},
  };
  if (smoke) {
    for (auto& w : table) {
      if (w.mode == Mode::kService) {
        w.min_ops = 6;
      } else {
        w.chromosome_length /= 5;
        w.min_ops = 1;
      }
    }
  }
  return table;
}

Digest DigestOf(const std::vector<VariantRecord>& variants) {
  Digest d;
  d.hash = 1469598103934665603ULL;
  for (const auto& v : variants) {
    std::ostringstream os;
    os << v.Key() << "@" << v.qual << "\n";
    d.hash = Fnv1a(os.str(), d.hash);
  }
  d.variants = static_cast<int64_t>(variants.size());
  return d;
}

Sample MakeSample(const Workload& w, const Genome& g, uint64_t seed,
                  uint64_t index, double coverage_scale) {
  ReadSimulatorOptions so;
  so.coverage = w.coverage * coverage_scale;
  so.duplicate_rate = w.duplicate_rate;
  so.seed = MixSeeds(MixSeeds(FamilySeed(w, seed), 2), index);
  SimulatedSample s = SimulateReads(g.donor, so);
  return {std::move(s.mate1), std::move(s.mate2)};
}

PipelineConfig MakePipelineConfig(const Workload& w, Executor* executor) {
  PipelineConfig c;
  c.alignment_partitions = w.partitions;
  c.max_parallel_tasks = executor->num_threads();
  c.executor = executor;
  switch (w.mode) {
    case Mode::kStreamed:
      c.pipelined = true;
      c.streaming = true;
      break;
    case Mode::kBarrieredCodec:
      c.compress_shuffle = true;
      c.shuffle_compress_level = 1;
      c.write_manifests = true;
      break;
    case Mode::kService:
      break;  // the default config; gesalld adds manifests + resume
  }
  return c;
}

DfsOptions MakeDfsOptions(const Workload& w, const std::string& root) {
  DfsOptions d;
  d.block_size = 256 * 1024;
  d.num_data_nodes = 4;
  d.durability.root_dir = root;
  if (w.mode == Mode::kBarrieredCodec) {
    d.compress_parts = true;
    d.compress_level = 1;
  }
  return d;
}

Result<Reference> ReferenceFor(const Workload& w, const Genome& g,
                               const GenomeIndex& index, Executor* executor,
                               const Sample& sample) {
  PipelineConfig c = MakePipelineConfig(w, executor);
  if (w.mode != Mode::kService) {
    c.pipelined = true;
    c.streaming = false;
    c.compress_shuffle = false;
    c.write_manifests = false;
  }
  DfsOptions d = MakeDfsOptions(w, "");
  d.compress_parts = false;
  Dfs dfs(d);
  GesallPipeline pipeline(g.reference, index, &dfs, c);
  Stopwatch clock;
  GESALL_RETURN_NOT_OK(pipeline.LoadSample(sample.mate1, sample.mate2));
  GESALL_ASSIGN_OR_RETURN(std::vector<VariantRecord> variants,
                          pipeline.RunAll());
  return Reference{DigestOf(variants), clock.ElapsedSeconds()};
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (rank - static_cast<double>(lo));
}

WorkloadResult RunWorkload(const Workload& w, const Options& opt) {
  WorkloadResult result;
  result.workload = w.name;
  fs::create_directories(fs::path(opt.tmp_dir) / w.name);
  const Genome genome = MakeGenome(w, opt.seed);

  // Set up repeatedly and keep the last. Set-ups started in the first
  // second are an untimed warm-up (an idle VM runs its first second or so
  // at a fraction of its speed); setup_s is the median of the next seven.
  Env env;
  std::vector<double> setups;
  const Stopwatch warming;
  for (int rep = 0; setups.size() < 7; ++rep) {
    const bool timed = warming.ElapsedSeconds() >= 1.0;
    env.Reset();
    Result<double> s = SetUp(w, genome, opt, rep, &env);
    if (!s.ok()) {
      result.attempted = 1;
      result.failed = 1;
      result.errors.push_back("set-up: " + s.status().ToString());
      return result;
    }
    if (timed) setups.push_back(s.ValueOrDie());
  }
  Executor* executor = env.executor.get();
  const GenomeIndex& index = *env.index;

  std::vector<Op> ops;
  std::vector<double> reference_seconds;
  double peak_rss = 0, cpu = 0, loop_wall = 0;
  int64_t extra_disk_bytes = 0, journal_records = 0;
  if (w.mode == Mode::kService) {
    LoopOutcome loop = RunServiceLoop(w, genome, opt, &env);
    ops = std::move(loop.ops);
    peak_rss = loop.rss;
    cpu = loop.cpu;
    loop_wall = loop.wall;
    extra_disk_bytes = loop.dfs_bytes;
    journal_records = loop.journal_records;
  } else {
    double timed = 0;
    for (uint64_t i = 0;; ++i) {
      if (i >= static_cast<uint64_t>(w.min_ops) && timed >= opt.seconds) {
        break;
      }
      const Sample sample = MakeSample(w, genome, opt.seed, i);
      const std::string root = OpRoot(opt, w, "pass-" + std::to_string(i));
      fs::remove_all(root);
      Op op = RunPass(w, genome, index, executor, sample, root);
      op.index = i;
      timed += op.wall;
      cpu += op.cpu;
      // Read after the first pass: later passes let memory the allocator
      // retains climb to a plateau whose level varies from run to run.
      if (i == 0) peak_rss = PeakRssMb();
      fs::remove_all(root);
      ops.push_back(std::move(op));
    }
    loop_wall = timed;
  }
  // References run after every timed operation (regenerating each read
  // set), so they neither perturb the timings nor raise peak_rss_mb.
  for (Op& op : ops) {
    CheckAgainstReference(w, genome, index, executor, opt, &op,
                          &reference_seconds);
  }

  std::vector<double> walls, latencies, queue_fracs;
  int64_t pairs = 0, disk = extra_disk_bytes, busy = 0, ok_ops = 0;
  for (const Op& op : ops) {
    ++result.attempted;
    if (!op.ok) {
      ++result.failed;
      result.errors.push_back("op " + std::to_string(op.index) + ": " +
                              op.error);
    }
    if (op.latency <= 0) continue;  // refused: no latency to report
    ++ok_ops;
    walls.push_back(op.wall);
    result.op_walls.push_back(op.wall);
    latencies.push_back(op.latency);
    queue_fracs.push_back(op.queue / op.latency);
    pairs += op.pairs;
    disk += op.disk_bytes;
    busy += op.busy_micros;
  }
  const double kpairs = std::max<double>(1, static_cast<double>(pairs)) / 1e3;
  auto& m = result.end_to_end;
  AddMetric(&m, "sample_wall_s", "s", Quantile(walls, 0.5));
  AddMetric(&m, "cpu_s_per_kpair", "s", cpu / kpairs);
  AddMetric(&m, "peak_rss_mb", "MB", peak_rss);
  AddMetric(&m, "disk_bytes_per_pair", "B",
            static_cast<double>(disk) / std::max<double>(1, pairs));
  AddMetric(&m, "setup_s", "s", Quantile(setups, 0.5));
  AddMetric(&m, "job_p50_s", "s", Quantile(latencies, 0.5));
  AddMetric(&m, "job_p90_s", "s", Quantile(latencies, 0.9));
  AddMetric(&m, "jobs_per_s", "jobs/s",
            static_cast<double>(ok_ops) / std::max(loop_wall, 1e-9));

  if (!opt.trace_path.empty()) {
    UntracedSummary summary;
    summary.wall_p50 = Quantile(walls, 0.5);
    summary.job_p50 = Quantile(latencies, 0.5);
    summary.reference_p50 = Quantile(reference_seconds, 0.5);
    summary.queue_frac = Quantile(queue_fracs, 0.5);
    const double n = static_cast<double>(std::max<int64_t>(1, ok_ops));
    summary.busy_s_per_job = static_cast<double>(busy) / 1e6 / n;
    summary.journal_records_per_job = static_cast<double>(journal_records) / n;
    TraceContext ctx;
    ctx.workload = &w;
    ctx.genome = &genome;
    ctx.index = &index;
    ctx.executor = executor;
    ctx.seed = opt.seed;
    ctx.tmp_dir = (fs::path(opt.tmp_dir) / w.name).string();
    ctx.trace_path = opt.trace_path;
    ++result.attempted;
    Status st = RunTracedPass(ctx, summary, &result);
    if (!st.ok()) {
      ++result.failed;
      result.errors.push_back("traced pass: " + st.ToString());
    }
  }
  env.Reset();
  fs::remove_all(fs::path(opt.tmp_dir) / w.name);
  return result;
}

}  // namespace gesall::e2e
