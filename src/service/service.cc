#include "service/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>

#include "util/io.h"

namespace gesall {
namespace {

constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

// Job-log opcodes (on-disk format; never renumber).
constexpr uint8_t kOpSubmit = 1;
constexpr uint8_t kOpStart = 2;
constexpr uint8_t kOpRound = 3;
constexpr uint8_t kOpFinish = 4;

void EncodeFastq(BufferWriter* w, const std::vector<FastqRecord>& reads) {
  w->PutU32(static_cast<uint32_t>(reads.size()));
  for (const FastqRecord& r : reads) {
    w->PutString(r.name);
    w->PutString(r.sequence);
    w->PutString(r.quality);
  }
}

Status DecodeFastq(BufferReader* r, std::vector<FastqRecord>* out) {
  uint32_t n = 0;
  GESALL_RETURN_NOT_OK(r->GetU32(&n));
  out->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    GESALL_RETURN_NOT_OK(r->GetString(&(*out)[i].name));
    GESALL_RETURN_NOT_OK(r->GetString(&(*out)[i].sequence));
    GESALL_RETURN_NOT_OK(r->GetString(&(*out)[i].quality));
  }
  return Status::OK();
}

// The durable subset of a job: identity, service-level requirements, the
// sample itself, and the pipeline knobs that change outputs. The
// aligner/caller option structs are not persisted — a recovered job runs
// them at their defaults.
void EncodeJobPayload(BufferWriter* w, JobId id, const JobSpec& spec) {
  w->PutU64(id);
  w->PutString(spec.tenant);
  w->PutI64(spec.priority);
  w->PutF64(spec.deadline_seconds);
  w->PutF64(spec.timeout_seconds);
  EncodeFastq(w, spec.mate1);
  EncodeFastq(w, spec.mate2);
  const PipelineConfig& p = spec.pipeline;
  w->PutI64(p.alignment_partitions);
  w->PutI64(p.cleaning_reducers);
  w->PutI64(p.markdup_reducers);
  w->PutU8(p.markdup_use_bloom ? 1 : 0);
  w->PutI64(p.max_parallel_tasks);
  w->PutU8(p.use_combiners ? 1 : 0);
  w->PutString(p.read_group.id);
  w->PutString(p.read_group.sample);
  w->PutString(p.read_group.library);
  w->PutU8(p.use_streaming_alignment ? 1 : 0);
  w->PutU8(static_cast<uint8_t>(p.hc_partitioning));
  w->PutI64(p.hc_segments_per_chromosome);
  w->PutU8(static_cast<uint8_t>(p.variant_caller));
  w->PutU8(p.run_recalibration ? 1 : 0);
  w->PutU64(p.bloom_expected_items);
  w->PutF64(p.bloom_fpr);
  w->PutU8(p.pipelined ? 1 : 0);
  w->PutU8(p.streaming ? 1 : 0);
}

Status DecodeJobPayload(BufferReader* r, JobId* id, JobSpec* spec) {
  uint64_t raw_id = 0;
  GESALL_RETURN_NOT_OK(r->GetU64(&raw_id));
  *id = raw_id;
  GESALL_RETURN_NOT_OK(r->GetString(&spec->tenant));
  int64_t priority = 0;
  GESALL_RETURN_NOT_OK(r->GetI64(&priority));
  spec->priority = static_cast<int>(priority);
  GESALL_RETURN_NOT_OK(r->GetF64(&spec->deadline_seconds));
  GESALL_RETURN_NOT_OK(r->GetF64(&spec->timeout_seconds));
  GESALL_RETURN_NOT_OK(DecodeFastq(r, &spec->mate1));
  GESALL_RETURN_NOT_OK(DecodeFastq(r, &spec->mate2));
  PipelineConfig& p = spec->pipeline;
  int64_t i64 = 0;
  uint64_t u64 = 0;
  uint8_t u8 = 0;
  GESALL_RETURN_NOT_OK(r->GetI64(&i64));
  p.alignment_partitions = static_cast<int>(i64);
  GESALL_RETURN_NOT_OK(r->GetI64(&i64));
  p.cleaning_reducers = static_cast<int>(i64);
  GESALL_RETURN_NOT_OK(r->GetI64(&i64));
  p.markdup_reducers = static_cast<int>(i64);
  GESALL_RETURN_NOT_OK(r->GetU8(&u8));
  p.markdup_use_bloom = u8 != 0;
  GESALL_RETURN_NOT_OK(r->GetI64(&i64));
  p.max_parallel_tasks = static_cast<int>(i64);
  GESALL_RETURN_NOT_OK(r->GetU8(&u8));
  p.use_combiners = u8 != 0;
  GESALL_RETURN_NOT_OK(r->GetString(&p.read_group.id));
  GESALL_RETURN_NOT_OK(r->GetString(&p.read_group.sample));
  GESALL_RETURN_NOT_OK(r->GetString(&p.read_group.library));
  GESALL_RETURN_NOT_OK(r->GetU8(&u8));
  p.use_streaming_alignment = u8 != 0;
  GESALL_RETURN_NOT_OK(r->GetU8(&u8));
  p.hc_partitioning = static_cast<PipelineConfig::HcPartitioning>(u8);
  GESALL_RETURN_NOT_OK(r->GetI64(&i64));
  p.hc_segments_per_chromosome = static_cast<int>(i64);
  GESALL_RETURN_NOT_OK(r->GetU8(&u8));
  p.variant_caller = static_cast<PipelineConfig::VariantCaller>(u8);
  GESALL_RETURN_NOT_OK(r->GetU8(&u8));
  p.run_recalibration = u8 != 0;
  GESALL_RETURN_NOT_OK(r->GetU64(&u64));
  p.bloom_expected_items = static_cast<size_t>(u64);
  GESALL_RETURN_NOT_OK(r->GetF64(&p.bloom_fpr));
  GESALL_RETURN_NOT_OK(r->GetU8(&u8));
  p.pipelined = u8 != 0;
  GESALL_RETURN_NOT_OK(r->GetU8(&u8));
  p.streaming = u8 != 0;
  return Status::OK();
}

/// Job ids double as executor tags, and tag statistics live for the
/// process (Executor::Shared()): each service instance takes a disjoint
/// id range so a fresh service never inherits a previous instance's
/// accumulated busy time.
std::atomic<uint64_t> g_next_id_base{1};

/// Synthetic executor-time charge for a job that is running but has not
/// reported usage yet, so a burst of submissions from one tenant cannot
/// claim every runner slot while all consumed_micros are still zero.
constexpr int64_t kRunningChargeMicros = 50'000;

int64_t EstimateInputBytes(const JobSpec& spec) {
  int64_t bytes = 0;
  for (const auto* mate : {&spec.mate1, &spec.mate2}) {
    for (const FastqRecord& r : *mate) {
      bytes += static_cast<int64_t>(r.name.size() + r.sequence.size() +
                                    r.quality.size() + 3);
    }
  }
  return bytes;
}

/// Did any recovery machinery fire inside this job? Judged from the
/// job's own merged round counters, never cluster-wide DFS stats (those
/// mix in other tenants' history).
bool CountersIndicateRecovery(const JobCounters& c) {
  static const char* const kRecoveryCounters[] = {
      "map_task_retries",     "reduce_task_retries",
      "map_tasks_reexecuted", "map_outputs_lost_to_dead_nodes",
      "shuffle_fetch_corruptions", "map_splits_skipped",
      "speculative_wins"};
  for (const char* name : kRecoveryCounters) {
    if (c.Get(name) > 0) return true;
  }
  return false;
}

}  // namespace

GesallService::GesallService(const ReferenceGenome& reference,
                             const GenomeIndex& index, Dfs* dfs,
                             ServiceConfig config)
    : reference_(&reference),
      index_(&index),
      dfs_(dfs),
      config_(std::move(config)),
      executor_(config_.executor != nullptr ? config_.executor
                                            : Executor::Shared()),
      heartbeat_(dfs) {
  next_id_ = g_next_id_base.fetch_add(uint64_t{1} << 20);
  if (config_.durability.enabled()) RecoverJobs();
  if (config_.heartbeat_interval_ms > 0) {
    heartbeat_.Start(config_.heartbeat_interval_ms);
  }
  const int runners = std::max(1, config_.max_running_jobs);
  runners_.reserve(runners);
  for (int i = 0; i < runners; ++i) {
    runners_.emplace_back([this] { RunnerLoop(); });
  }
  watchdog_ = std::thread([this] { WatchdogLoop(); });
}

GesallService::~GesallService() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
    // Fail still-queued jobs so their waiters unblock; running jobs are
    // left to finish (the runner loop exits once they do).
    std::vector<JobId> queued(queue_.begin(), queue_.end());
    for (JobId id : queued) {
      auto it = jobs_.find(id);
      if (it == jobs_.end()) continue;
      JobOutput out;
      out.id = id;
      out.tenant = it->second->spec.tenant;
      out.status = Status::Cancelled("service shutdown");
      out.queue_seconds = clock_.ElapsedSeconds() - it->second->submitted_at;
      out.total_seconds = out.queue_seconds;
      // journal=false: a durable log keeps queued jobs across a graceful
      // shutdown so the next incarnation requeues them.
      FinishJobLocked(it->second, std::move(out), /*journal=*/false);
    }
    cv_sched_.notify_all();
    cv_done_.notify_all();
    // Drain Wait() callers: waiters on running jobs unblock when the
    // still-alive runners finish those jobs below; waiters on queued
    // jobs were just unblocked by the shutdown failures.
    cv_waiters_.wait(lock, [&] { return waiters_ == 0; });
  }
  for (std::thread& t : runners_) t.join();
  if (watchdog_.joinable()) watchdog_.join();
  heartbeat_.Stop();
}

Result<JobId> GesallService::Submit(JobSpec spec) {
  const int64_t bytes = EstimateInputBytes(spec);
  std::lock_guard<std::mutex> lock(mu_);
  stats_.submitted++;
  if (!recovery_status_.ok()) {
    // A broken durable log fails loudly rather than accepting work it
    // cannot journal.
    stats_.shed++;
    return recovery_status_;
  }
  const std::string retry =
      "; retry after " + std::to_string(config_.retry_after_ms) + "ms";
  if (state_ != State::kAccepting || stop_) {
    stats_.shed++;
    stats_.shed_draining++;
    return Status::Unavailable("service draining" + retry);
  }
  if (static_cast<int>(queue_.size()) >= config_.max_queue_depth) {
    stats_.shed++;
    stats_.shed_queue_depth++;
    return Status::Unavailable(
        "job queue full (" + std::to_string(queue_.size()) + ")" + retry);
  }
  if (in_flight_bytes_ + bytes > config_.max_in_flight_bytes) {
    stats_.shed++;
    stats_.shed_bytes++;
    return Status::Unavailable("in-flight byte budget exceeded" + retry);
  }
  Tenant& tenant = TenantEntryLocked(spec.tenant);
  if (tenant.queued >= tenant.quota.max_queued_jobs) {
    stats_.shed++;
    stats_.shed_tenant_quota++;
    return Status::Unavailable("tenant '" + spec.tenant +
                               "' queue quota exhausted" + retry);
  }

  const JobId id = next_id_++;
  auto job = std::make_shared<Job>();
  job->id = id;
  job->spec = std::move(spec);
  job->cancel = std::make_shared<CancelToken>();
  job->input_bytes = bytes;
  job->submitted_at = clock_.ElapsedSeconds();
  job->deadline_at = job->spec.deadline_seconds > 0
                         ? job->submitted_at + job->spec.deadline_seconds
                         : kNoDeadline;
  double timeout = job->spec.timeout_seconds > 0
                       ? job->spec.timeout_seconds
                       : config_.default_timeout_seconds;
  job->timeout_at = timeout > 0 ? job->submitted_at + timeout : 0;
  jobs_[id] = job;
  queue_.push_back(id);
  tenant.queued++;
  in_flight_bytes_ += bytes;
  stats_.admitted++;
  if (config_.durability.enabled()) {
    // The submit record is the admission commit point: if it cannot be
    // made durable the admission rolls back and the caller sees the
    // IOError (an accepted-but-forgettable job would violate the
    // recovery contract).
    std::string record;
    BufferWriter writer(&record);
    writer.PutU8(kOpSubmit);
    EncodeJobPayload(&writer, id, job->spec);
    Status journaled;
    {
      std::lock_guard<std::mutex> jlock(journal_mu_);
      journaled = store_ != nullptr ? store_->Append(record)
                                    : Status::Internal("job log missing");
    }
    if (!journaled.ok()) {
      journal_failures_++;
      jobs_.erase(id);
      queue_.pop_back();
      tenant.queued--;
      in_flight_bytes_ -= bytes;
      stats_.admitted--;
      return journaled;
    }
    journal_appends_++;
    MaybeCheckpointLocked();
  }
  cv_sched_.notify_all();
  return id;
}

Result<JobOutput> GesallService::Wait(JobId id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown job id " + std::to_string(id));
  }
  std::shared_ptr<Job> job = it->second;
  // Counted so the destructor can drain waiters before tearing down the
  // mutex and condition variables they sleep on.
  waiters_++;
  cv_done_.wait(lock, [&] { return job->done; });
  JobOutput output = job->output;
  if (--waiters_ == 0) cv_waiters_.notify_all();
  return output;
}

Status GesallService::Cancel(JobId id, std::string cause) {
  std::shared_ptr<CancelToken> token;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return Status::NotFound("unknown job id " + std::to_string(id));
    }
    std::shared_ptr<Job> job = it->second;
    if (job->done) return Status::OK();
    if (!job->running) {
      JobOutput out;
      out.id = id;
      out.tenant = job->spec.tenant;
      out.status = Status::Cancelled(cause);
      out.queue_seconds = clock_.ElapsedSeconds() - job->submitted_at;
      out.total_seconds = out.queue_seconds;
      FinishJobLocked(job, std::move(out));
      return Status::OK();
    }
    token = job->cancel;
  }
  // Flip outside mu_: cancel callbacks (e.g. gated-split releases) run
  // inline and must not observe service locks.
  token->Cancel(std::move(cause));
  return Status::OK();
}

void GesallService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  if (state_ == State::kAccepting) {
    state_ = State::kDraining;
    stats_.drains++;
  }
  cv_sched_.notify_all();
  cv_done_.wait(lock, [&] { return running_count_ == 0; });
  if (state_ == State::kDraining) state_ = State::kDrained;
}

void GesallService::Restart() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kAccepting || stop_) return;
  state_ = State::kAccepting;
  stats_.restarts++;
  cv_sched_.notify_all();
}

GesallService::State GesallService::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

ServiceStats GesallService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats out = stats_;
  out.journal_records_appended = journal_appends_.load();
  out.journal_append_failures = journal_failures_.load();
  return out;
}

Status GesallService::recovery_status() const { return recovery_status_; }

ServiceRecoveryStats GesallService::recovery_stats() const {
  return recovery_;
}

int GesallService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(queue_.size());
}

int GesallService::running_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_count_;
}

GesallService::Tenant& GesallService::TenantEntryLocked(
    const std::string& name) {
  auto it = tenants_.find(name);
  if (it != tenants_.end()) return it->second;
  Tenant tenant;
  auto q = config_.tenants.find(name);
  tenant.quota = q != config_.tenants.end() ? q->second : config_.default_quota;
  if (tenant.quota.weight <= 0) tenant.quota.weight = 1.0;
  return tenants_.emplace(name, tenant).first->second;
}

JobId GesallService::PickNextJobLocked() {
  // Stage 1: the eligible tenant with the least consumed executor time
  // per unit weight (running jobs carry a synthetic charge until their
  // real usage lands). Ties break on tenant name for determinism.
  const std::string* best_tenant = nullptr;
  double best_score = 0;
  for (JobId id : queue_) {
    const std::string& name = jobs_.at(id)->spec.tenant;
    if (best_tenant != nullptr && name == *best_tenant) continue;
    const Tenant& t = tenants_.at(name);
    double score =
        static_cast<double>(t.consumed_micros +
                            t.running * kRunningChargeMicros) /
        t.quota.weight;
    if (best_tenant == nullptr || score < best_score ||
        (score == best_score && name < *best_tenant)) {
      best_tenant = &name;
      best_score = score;
    }
  }
  if (best_tenant == nullptr) return 0;
  // Stage 2: within the tenant, earliest deadline, then highest
  // priority, then FIFO.
  JobId best = 0;
  const Job* best_job = nullptr;
  for (JobId id : queue_) {
    const Job& job = *jobs_.at(id);
    if (job.spec.tenant != *best_tenant) continue;
    if (best_job == nullptr ||
        job.deadline_at < best_job->deadline_at ||
        (job.deadline_at == best_job->deadline_at &&
         (job.spec.priority > best_job->spec.priority ||
          (job.spec.priority == best_job->spec.priority && id < best)))) {
      best = id;
      best_job = &job;
    }
  }
  return best;
}

void GesallService::RunnerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_sched_.wait(lock, [&] {
      return stop_ ||
             (state_ == State::kAccepting && PickNextJobLocked() != 0);
    });
    if (stop_) return;
    const JobId id = PickNextJobLocked();
    if (id == 0) continue;
    std::shared_ptr<Job> job = jobs_.at(id);
    queue_.erase(std::find(queue_.begin(), queue_.end(), id));
    Tenant& tenant = TenantEntryLocked(job->spec.tenant);
    tenant.queued--;
    tenant.running++;
    job->running = true;
    running_count_++;
    lock.unlock();
    {
      std::string record;
      BufferWriter writer(&record);
      writer.PutU8(kOpStart);
      writer.PutU64(job->id);
      JournalBestEffort(record);
    }
    RunJob(job);
    lock.lock();
  }
}

void GesallService::PlanJob(Job* job, PipelineConfig* cfg,
                            JobOutput* out) const {
  // Online planning: describe this job's sample and the service's DFS
  // as a (tiny) cluster, and let the paper's enumerative optimizer pick
  // the cheapest plan meeting the deadline. The plan's knobs map onto
  // the functional pipeline's tunables.
  ClusterSpec cluster;
  cluster.name = "service";
  cluster.num_data_nodes = std::max(1, dfs_->num_data_nodes());
  WorkloadSpec workload;
  workload.read_pairs = static_cast<int64_t>(
      std::max<size_t>(1, job->spec.mate1.size()));
  if (!job->spec.mate1.empty()) {
    workload.read_length =
        std::max<int>(1, static_cast<int>(job->spec.mate1[0].sequence.size()));
  }
  PipelineOptimizer optimizer(cluster, workload, GenomicsRates{});
  OptimizerObjective objective;
  objective.deadline_seconds = job->spec.deadline_seconds;
  PipelinePlan plan = optimizer.Optimize(objective);
  cfg->alignment_partitions =
      std::max(1, plan.align_maps_per_node * plan.align_waves);
  cfg->max_parallel_tasks = std::max(1, plan.shuffle_slots_per_node);
  cfg->markdup_use_bloom = plan.markdup_optimized;
  out->planned = true;
  out->plan = plan;
}

void GesallService::RunJob(const std::shared_ptr<Job>& job) {
  JobOutput out;
  out.id = job->id;
  out.tenant = job->spec.tenant;
  const double run_start = clock_.ElapsedSeconds();

  PipelineConfig cfg = job->spec.pipeline;
  cfg.dfs_root = config_.dfs_root_prefix + "/" + job->spec.tenant + "/job-" +
                 std::to_string(job->id);
  cfg.auto_tick = false;  // the HeartbeatDriver owns the DFS clock
  cfg.cancel = job->cancel;
  if (cfg.executor == nullptr) cfg.executor = executor_;
  if (job->spec.deadline_seconds > 0) PlanJob(job.get(), &cfg, &out);
  const bool durable = config_.durability.enabled();
  if (durable) {
    // Rounds seal manifests in the job's DFS namespace, completed rounds
    // are skipped on a post-crash re-run, and a crash-cancelled job
    // keeps its sealed outputs for that resume.
    cfg.write_manifests = true;
    cfg.resume = true;
    cfg.preserve_outputs_on_cancel = true;
  }
  if (durable || config_.round_complete_hook) {
    const JobId id = job->id;
    cfg.on_round_complete = [this, id](int round_index,
                                       const std::string& round_name) {
      std::string record;
      BufferWriter writer(&record);
      writer.PutU8(kOpRound);
      writer.PutU64(id);
      writer.PutI64(round_index);
      writer.PutString(round_name);
      JournalBestEffort(record);
      if (config_.round_complete_hook) {
        config_.round_complete_hook(id, round_index, round_name);
      }
    };
  }

  {
    // Every task this pipeline submits inherits the job id as its
    // executor tag; usage lands in tag_stats for fair-share accounting.
    Executor::TagScope tag_scope(job->id);
    GesallPipeline pipeline(*reference_, *index_, dfs_, cfg);
    Status load = pipeline.LoadSample(job->spec.mate1, job->spec.mate2);
    if (!load.ok()) {
      out.status = load;
    } else {
      Result<std::vector<VariantRecord>> result = pipeline.RunAll();
      out.status = result.status();
      if (result.ok()) out.variants = result.MoveValueUnsafe();
    }
    for (const RoundStats& round : pipeline.stats()) {
      out.counters.Merge(round.counters);
    }
  }
  out.recovered = CountersIndicateRecovery(out.counters);
  out.busy_micros = executor_->tag_stats(job->id).busy_micros;
  const double end = clock_.ElapsedSeconds();
  out.queue_seconds = run_start - job->submitted_at;
  out.run_seconds = end - run_start;
  out.total_seconds = end - job->submitted_at;

  std::lock_guard<std::mutex> lock(mu_);
  FinishJobLocked(job, std::move(out));
}

void GesallService::FinishJobLocked(const std::shared_ptr<Job>& job,
                                    JobOutput output, bool journal) {
  Tenant& tenant = TenantEntryLocked(job->spec.tenant);
  if (job->running) {
    tenant.running--;
    tenant.consumed_micros += output.busy_micros;
    running_count_--;
    job->running = false;
  } else {
    auto it = std::find(queue_.begin(), queue_.end(), job->id);
    if (it != queue_.end()) queue_.erase(it);
    tenant.queued--;
  }
  in_flight_bytes_ -= job->input_bytes;
  if (output.status.ok()) {
    stats_.completed++;
    stats_.completed_by_tenant[job->spec.tenant]++;
    if (output.recovered) stats_.recovered_jobs++;
  } else if (output.status.IsCancelled()) {
    stats_.cancelled++;
  } else {
    stats_.failed++;
  }
  if (journal && !crashed_) {
    std::string record;
    BufferWriter writer(&record);
    writer.PutU8(kOpFinish);
    writer.PutU64(job->id);
    writer.PutI64(static_cast<int64_t>(output.status.code()));
    JournalBestEffort(record);
    MaybeCheckpointLocked();
  }
  job->output = std::move(output);
  job->done = true;
  cv_done_.notify_all();
  cv_sched_.notify_all();
}

// ---------------------------------------------------------------------
// Durable job log.

void GesallService::RecoverJobs() {
  recovery_status_ = ValidateDurabilityOptions(config_.durability);
  if (!recovery_status_.ok()) return;

  struct Pending {
    JobId id = 0;
    JobSpec spec;
  };
  std::vector<Pending> pending;  // original submit order (id order)
  JobId max_id = 0;
  auto add = [&](BufferReader* reader) -> Status {
    Pending p;
    GESALL_RETURN_NOT_OK(DecodeJobPayload(reader, &p.id, &p.spec));
    max_id = std::max(max_id, p.id);
    pending.push_back(std::move(p));
    return Status::OK();
  };
  auto load_snapshot = [&](std::string_view snapshot) -> Status {
    BufferReader reader(snapshot);
    uint32_t n = 0;
    GESALL_RETURN_NOT_OK(reader.GetU32(&n));
    for (uint32_t i = 0; i < n; ++i) GESALL_RETURN_NOT_OK(add(&reader));
    return Status::OK();
  };
  auto apply = [&](std::string_view record) -> Status {
    BufferReader reader(record);
    uint8_t op = 0;
    GESALL_RETURN_NOT_OK(reader.GetU8(&op));
    switch (op) {
      case kOpSubmit:
        return add(&reader);
      case kOpStart:
      case kOpRound:
        // Round-level progress is recovered from the DFS manifests, not
        // the job log; these records exist for observability.
        return Status::OK();
      case kOpFinish: {
        uint64_t id = 0;
        GESALL_RETURN_NOT_OK(reader.GetU64(&id));
        for (auto it = pending.begin(); it != pending.end(); ++it) {
          if (it->id == id) {
            pending.erase(it);
            break;
          }
        }
        return Status::OK();
      }
      default:
        return Status::Corruption("unknown job-log opcode " +
                                  std::to_string(op));
    }
  };
  auto store = std::make_unique<JournaledStore>(
      config_.durability.root_dir + "/service", config_.durability);
  recovery_status_ = store->Recover(load_snapshot, apply);
  if (!recovery_status_.ok()) return;

  // Requeue every unfinished job, bypassing admission control: recovered
  // work was already admitted once and is never shed, even if quotas
  // shrank meanwhile. Submit order (= id order) is preserved, and the
  // per-tenant queued counts plus the in-flight byte ledger are rebuilt
  // from the requeued set. Fairness state (consumed_micros) restarts at
  // zero — a deliberate reset, matching the process the crash killed.
  std::lock_guard<std::mutex> lock(mu_);
  const double now = clock_.ElapsedSeconds();
  for (Pending& p : pending) {
    auto job = std::make_shared<Job>();
    job->id = p.id;
    job->spec = std::move(p.spec);
    job->cancel = std::make_shared<CancelToken>();
    job->input_bytes = EstimateInputBytes(job->spec);
    job->submitted_at = now;  // service clocks restart with the process
    job->deadline_at = job->spec.deadline_seconds > 0
                           ? now + job->spec.deadline_seconds
                           : kNoDeadline;
    const double timeout = job->spec.timeout_seconds > 0
                               ? job->spec.timeout_seconds
                               : config_.default_timeout_seconds;
    job->timeout_at = timeout > 0 ? now + timeout : 0;
    jobs_[job->id] = job;
    queue_.push_back(job->id);
    TenantEntryLocked(job->spec.tenant).queued++;
    in_flight_bytes_ += job->input_bytes;
  }
  if (max_id >= next_id_) next_id_ = max_id + 1;
  recovery_.recovered = true;
  recovery_.snapshot_loaded = store->snapshot_loaded();
  recovery_.journal_records_replayed = store->replay_stats().records;
  recovery_.torn_tail = store->replay_stats().torn_tail;
  recovery_.jobs_recovered = static_cast<int64_t>(pending.size());
  std::lock_guard<std::mutex> jlock(journal_mu_);
  store_ = std::move(store);
}

void GesallService::JournalBestEffort(std::string_view record) {
  std::lock_guard<std::mutex> lock(journal_mu_);
  if (store_ == nullptr) return;
  if (store_->Append(record).ok()) {
    journal_appends_++;
  } else {
    journal_failures_++;
  }
}

void GesallService::MaybeCheckpointLocked() {
  std::lock_guard<std::mutex> jlock(journal_mu_);
  if (store_ == nullptr || !store_->ShouldCheckpoint()) return;
  // A failed checkpoint is not fatal: the journal stays authoritative
  // and recovery simply replays more records.
  if (store_->Checkpoint(EncodeSnapshotLocked()).ok()) {
    stats_.snapshots_written++;
  }
}

std::string GesallService::EncodeSnapshotLocked() const {
  std::string snapshot;
  BufferWriter writer(&snapshot);
  uint32_t live = 0;
  for (const auto& [id, job] : jobs_) {
    if (!job->done) live++;
  }
  writer.PutU32(live);
  // Running jobs are still unfinished — a crash loses their in-memory
  // progress, so the snapshot carries them for requeue exactly like
  // queued ones (their sealed rounds skip on resume).
  for (const auto& [id, job] : jobs_) {
    if (job->done) continue;
    EncodeJobPayload(&writer, id, job->spec);
  }
  return snapshot;
}

Status GesallService::SimulateCrash() {
  if (!config_.durability.enabled()) {
    return Status::InvalidArgument(
        "SimulateCrash requires ServiceConfig::durability");
  }
  std::vector<std::shared_ptr<CancelToken>> to_cancel;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) return Status::OK();
    crashed_ = true;
    stop_ = true;
    // Queued jobs die with the process. Their waiters unblock with
    // Unavailable, but nothing is journaled: the log still names them
    // unfinished, which is exactly what the next incarnation recovers.
    std::vector<JobId> queued(queue_.begin(), queue_.end());
    const double now = clock_.ElapsedSeconds();
    for (JobId id : queued) {
      auto it = jobs_.find(id);
      if (it == jobs_.end()) continue;
      JobOutput out;
      out.id = id;
      out.tenant = it->second->spec.tenant;
      out.status = Status::Unavailable("simulated crash");
      out.queue_seconds = now - it->second->submitted_at;
      out.total_seconds = out.queue_seconds;
      FinishJobLocked(it->second, std::move(out), /*journal=*/false);
    }
    for (const auto& [id, job] : jobs_) {
      if (job->running && !job->done) to_cancel.push_back(job->cancel);
    }
    cv_sched_.notify_all();
  }
  // Flip outside mu_ (cancel callbacks run inline) and wait for the
  // runners to unwind their pipelines cooperatively.
  for (auto& token : to_cancel) token->Cancel("simulated crash");
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return running_count_ == 0; });
  }
  for (std::thread& t : runners_) t.join();
  runners_.clear();
  if (watchdog_.joinable()) watchdog_.join();
  heartbeat_.Stop();
  // Drop the log handle with no checkpoint and no farewell record: the
  // on-disk state is exactly what a power loss leaves behind.
  std::lock_guard<std::mutex> jlock(journal_mu_);
  store_.reset();
  return Status::OK();
}

void GesallService::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_sched_.wait_for(
        lock, std::chrono::milliseconds(std::max(1, config_.watchdog_interval_ms)));
    if (stop_) break;
    const double now = clock_.ElapsedSeconds();
    // Queued jobs past their budget are failed in place.
    std::vector<JobId> queued(queue_.begin(), queue_.end());
    for (JobId id : queued) {
      std::shared_ptr<Job> job = jobs_.at(id);
      if (job->timeout_at <= 0 || now < job->timeout_at) continue;
      stats_.timed_out++;
      JobOutput out;
      out.id = id;
      out.tenant = job->spec.tenant;
      out.status = Status::Cancelled("job timed out in queue");
      out.queue_seconds = now - job->submitted_at;
      out.total_seconds = out.queue_seconds;
      FinishJobLocked(job, std::move(out));
    }
    // Running jobs past their budget get their token flipped; the
    // pipeline unwinds cooperatively and the runner records the result.
    std::vector<std::shared_ptr<CancelToken>> to_cancel;
    for (const auto& [id, job] : jobs_) {
      if (job->running && !job->done && job->timeout_at > 0 &&
          now >= job->timeout_at && !job->cancel->cancelled()) {
        stats_.timed_out++;
        to_cancel.push_back(job->cancel);
      }
    }
    if (!to_cancel.empty()) {
      lock.unlock();
      for (auto& token : to_cancel) token->Cancel("job timeout exceeded");
      lock.lock();
    }
  }
}

}  // namespace gesall
