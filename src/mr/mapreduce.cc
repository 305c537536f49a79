#include "mr/mapreduce.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "mr/shuffle_buffer.h"
#include "util/executor.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace gesall {

int HashPartitioner::Partition(std::string_view key,
                               int num_partitions) const {
  if (num_partitions <= 1) return 0;  // <= 0 would be UB in the modulo
  return static_cast<int>(Fnv1a64(key) %
                          static_cast<uint64_t>(num_partitions));
}

int RangePartitioner::Partition(std::string_view key,
                                int num_partitions) const {
  if (num_partitions <= 1) return 0;
  auto it = std::upper_bound(
      boundaries_.begin(), boundaries_.end(), key,
      [](std::string_view k, const std::string& b) { return k < b; });
  int p = static_cast<int>(it - boundaries_.begin());
  return std::min(p, num_partitions - 1);
}

InputSplit InlineSplit(std::string data) {
  auto shared = std::make_shared<std::string>(std::move(data));
  InputSplit split;
  split.load = [shared]() -> Result<std::string> { return *shared; };
  return split;
}

namespace {

Status ValidateJobConfig(const JobConfig& c, bool needs_reducers) {
  if (needs_reducers && c.num_reducers < 1) {
    return Status::InvalidArgument("num_reducers must be >= 1");
  }
  if (c.max_parallel_tasks < 1) {
    return Status::InvalidArgument("max_parallel_tasks must be >= 1");
  }
  if (c.max_task_attempts < 1) {
    return Status::InvalidArgument("max_task_attempts must be >= 1");
  }
  if (c.num_nodes < 0) {
    return Status::InvalidArgument("num_nodes must be non-negative");
  }
  if (c.shuffle_compress_level < -1 || c.shuffle_compress_level > 9) {
    return Status::InvalidArgument(
        "shuffle_compress_level must be -1..9");
  }
  return Status::OK();
}

// Per-map-task output plus bookkeeping. A full job's emits land in the
// frozen arena shuffle (one sorted run per partition per spill); a
// map-only job's land in `values`, in emission order.
struct MapTaskOutput {
  std::unique_ptr<ShuffleBuffer> shuffle;
  std::vector<std::string> values;
  JobCounters counters;
  TaskRecord record;
  Status status;
};

// Per-reduce-task output.
struct ReduceTaskOutput {
  std::vector<std::string> values;
  JobCounters counters;
  TaskRecord record;
  Status status;
};

// Runs one task through Hadoop-style attempt semantics: a failed attempt
// is retried up to max_task_attempts. `run_attempt(attempt, out)` must
// fully populate a default-constructed *out, including out->status and
// the record timestamps; each attempt starts from fresh state so a
// failed attempt's partial output (and counters) is discarded. Returns
// the number of retries taken.
template <typename TaskOut, typename Fn>
int RunTaskAttempts(const JobConfig& cfg, const Fn& run_attempt,
                    TaskOut* out) {
  for (int attempt = 0;; ++attempt) {
    *out = TaskOut{};
    run_attempt(attempt, out);
    // Cancellation is terminal, not a fault: a retry would just
    // re-observe the flipped token.
    if (out->status.ok() || out->status.IsCancelled() ||
        attempt + 1 >= cfg.max_task_attempts) {
      return attempt;
    }
  }
}

class MapContextImpl : public MapContext {
 public:
  // A null partitioner makes a map-only task's context: emits keep their
  // values in order and drop their keys. Otherwise emits enter the
  // task's shuffle.
  MapContextImpl(const Partitioner* partitioner, const JobConfig& cfg,
                 Executor* executor, MapTaskOutput* out)
      : partitioner_(partitioner), num_partitions_(cfg.num_reducers),
        out_(out) {
    if (partitioner_ == nullptr) return;
    out_->shuffle = std::make_unique<ShuffleBuffer>(
        cfg.num_reducers, cfg.sort_buffer_bytes, /*checksum=*/true,
        cfg.compress_shuffle, cfg.shuffle_compress_level, executor);
  }

  void Emit(std::string key, std::string value) override {
    if (partitioner_ == nullptr) {
      Keep(std::move(value));
      return;
    }
    EmitView(key, value);
  }

  void EmitView(std::string_view key, std::string_view value) override {
    if (partitioner_ == nullptr) {
      Keep(std::string(value));
      return;
    }
    if (!emit_status_.ok()) return;  // a spill already failed; drop
    int p = partitioner_->Partition(key, num_partitions_);
    ++records_;
    bytes_ += static_cast<int64_t>(key.size() + value.size());
    emit_status_ = out_->shuffle->Add(p, key, value);
  }

  void IncrementCounter(const std::string& name, int64_t delta) override {
    out_->counters.Add(name, delta);
  }

  // Flushes the batched per-record engine counters (hoisted out of the
  // Emit hot path) into the task counters.
  void FlushCounters() {
    if (records_ > 0) {
      out_->counters.Add("map_output_records", records_);
      out_->counters.Add("map_output_bytes", bytes_);
    }
    records_ = 0;
    bytes_ = 0;
  }

  // Final spill and checksum seal, then counter flush. Propagates
  // deferred spill failures.
  Status FinishTask() {
    if (partitioner_ == nullptr) {
      FlushCounters();
      return Status::OK();
    }
    GESALL_RETURN_NOT_OK(emit_status_);
    GESALL_RETURN_NOT_OK(out_->shuffle->Finish());
    FlushCounters();
    const ShuffleStats& s = out_->shuffle->stats();
    if (s.spills > 0) out_->counters.Add("map_spills", s.spills);
    if (s.checksummed_bytes > 0) {
      out_->counters.Add("shuffle_checksummed_bytes", s.checksummed_bytes);
    }
    if (s.spill_bytes_raw > 0) {
      out_->counters.Add("shuffle_spill_bytes_raw", s.spill_bytes_raw);
      out_->counters.Add("shuffle_spill_bytes_compressed",
                         s.spill_bytes_compressed);
      out_->counters.Add("shuffle_compress_micros", s.compress_micros);
    }
    return Status::OK();
  }

 private:
  // Map-only emit: the value is kept, its bytes counted alone.
  void Keep(std::string value) {
    ++records_;
    bytes_ += static_cast<int64_t>(value.size());
    out_->values.push_back(std::move(value));
  }

  const Partitioner* partitioner_;
  int num_partitions_;
  MapTaskOutput* out_;
  Status emit_status_;
  int64_t records_ = 0;
  int64_t bytes_ = 0;
};

class ReduceContextImpl : public ReduceContext {
 public:
  explicit ReduceContextImpl(std::vector<std::string>* out,
                             JobCounters* counters)
      : out_(out), counters_(counters) {}
  void Emit(std::string value) override {
    ++records_;
    bytes_ += static_cast<int64_t>(value.size());
    out_->push_back(std::move(value));
  }
  void IncrementCounter(const std::string& name, int64_t delta) override {
    counters_->Add(name, delta);
  }
  void FlushCounters() {
    if (records_ > 0) {
      counters_->Add("reduce_output_records", records_);
      counters_->Add("reduce_output_bytes", bytes_);
    }
    records_ = 0;
    bytes_ = 0;
  }

 private:
  std::vector<std::string>* out_;
  JobCounters* counters_;
  int64_t records_ = 0;
  int64_t bytes_ = 0;
};

// Shared prologue of one map attempt: injected straggler latency, then
// the split.load fault point, then the real split load, then the
// mr.map_attempt fault point. Returns the split bytes on success.
Result<std::string> LoadSplitAttempt(const InputSplit& split, int index,
                                     int attempt, FaultInjector* injector) {
  if (injector != nullptr) {
    int latency = injector->LatencyMs(kFaultMapAttempt, index, attempt);
    if (latency > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(latency));
    }
    GESALL_RETURN_NOT_OK(injector->MaybeFail(kFaultSplitLoad, index,
                                             attempt));
  }
  GESALL_ASSIGN_OR_RETURN(std::string input, split.load());
  if (injector != nullptr) {
    GESALL_RETURN_NOT_OK(injector->MaybeFail(kFaultMapAttempt, index,
                                             attempt));
  }
  return input;
}

// Hands one task's output to JobConfig::on_partition_output, on the
// worker that made it: partition `index` is reduce r, or map task i of a
// map-only job. The task's record has closed, so the callback's wall
// time gets a counter of its own. The values move into the hand-over,
// so the job result does not carry them again.
void HandOver(const JobConfig& cfg, int index,
              std::vector<std::string>* values, JobCounters* counters) {
  if (!cfg.on_partition_output) return;
  const std::vector<std::string> handed = std::move(*values);
  Stopwatch clock;
  cfg.on_partition_output(index, handed, *counters);
  counters->Add(kPartitionOutputMicros,
                static_cast<int64_t>(clock.ElapsedSeconds() * 1e6));
}

}  // namespace

// Shared state of one asynchronously running job. Tasks hold it via
// shared_ptr, so a caller may drop the Handle without waiting. Phase
// transitions are single-threaded hand-offs (the last map task's
// acq_rel countdown launches the master; the master launches reduces;
// the last reduce task finalizes), so the per-task output slots never
// see concurrent writers and need no lock of their own.
namespace internal {
struct JobState {
  JobConfig config;
  std::vector<InputSplit> splits;
  MapperFactory mapper_factory;
  ReducerFactory reducer_factory;
  const Partitioner* partitioner = nullptr;
  HashPartitioner default_partitioner;
  bool map_only = false;

  Executor* executor = nullptr;
  std::shared_ptr<Throttle> throttle;
  Stopwatch job_clock;

  std::vector<int> node_of;
  std::vector<MapTaskOutput> map_outputs;
  std::vector<ReduceTaskOutput> reduce_outputs;
  std::atomic<int> maps_remaining{0};
  std::atomic<int> reduces_remaining{0};

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;    // guarded by mu
  bool waited = false;  // guarded by mu
  Status error;         // guarded by mu until done
  JobResult result;     // guarded by mu until done
};
}  // namespace internal

namespace {

using internal::JobState;

void FinishJob(const std::shared_ptr<JobState>& s, Status st) {
  {
    std::lock_guard<std::mutex> lock(s->mu);
    s->error = std::move(st);
    s->done = true;
  }
  s->cv.notify_all();
}

// Map task i: all attempts, into its output slot, then a map-only task's
// hand-over. Reused verbatim by the master's lost-output re-execution, so
// a re-executed task goes through the same retry machinery.
void ExecuteMap(JobState* s, size_t i) {
  const JobConfig& cfg = s->config;
  auto run_attempt = [&](int attempt, MapTaskOutput* out) {
    out->record.type = TaskRecord::Type::kMap;
    out->record.index = static_cast<int>(i);
    out->record.attempt = attempt;
    out->record.start_seconds = s->job_clock.ElapsedSeconds();
    out->status = [&]() -> Status {
      if (cfg.cancel != nullptr && cfg.cancel->cancelled()) {
        return cfg.cancel->status();
      }
      GESALL_ASSIGN_OR_RETURN(
          std::string input,
          LoadSplitAttempt(s->splits[i], static_cast<int>(i), attempt,
                           cfg.fault_injector));
      out->record.input_bytes = static_cast<int64_t>(input.size());
      MapContextImpl ctx(s->map_only ? nullptr : s->partitioner, cfg,
                         s->executor, out);
      auto mapper = s->mapper_factory();
      Status st = mapper->Map(input, &ctx);
      if (st.ok()) {
        st = ctx.FinishTask();
      } else {
        ctx.FlushCounters();
      }
      out->record.output_bytes = out->counters.Get("map_output_bytes");
      return st;
    }();
    out->record.end_seconds = s->job_clock.ElapsedSeconds();
  };
  MapTaskOutput& slot = s->map_outputs[i];
  const int retries = RunTaskAttempts(cfg, run_attempt, &slot);
  if (retries > 0) slot.counters.Add("map_task_retries", retries);
  slot.record.node = s->node_of[i];
  if (s->map_only && slot.status.ok()) {
    HandOver(cfg, static_cast<int>(i), &slot.values, &slot.counters);
  }
}

void FinalizeMapOnlyJob(const std::shared_ptr<JobState>& s) {
  JobResult result;
  result.reducer_outputs.resize(s->splits.size());
  for (size_t i = 0; i < s->splits.size(); ++i) {
    MapTaskOutput& out = s->map_outputs[i];
    if (!out.status.ok()) {
      FinishJob(s, out.status);
      return;
    }
    result.counters.Merge(out.counters);
    result.tasks.push_back(out.record);
    result.reducer_outputs[i] = std::move(out.values);
  }
  {
    std::lock_guard<std::mutex> lock(s->mu);
    s->result = std::move(result);
    s->done = true;
  }
  s->cv.notify_all();
}

void RunReduceTask(const std::shared_ptr<JobState>& s, int r);
void FinalizeFullJob(const std::shared_ptr<JobState>& s);

// The job master: reduce-side fetch with Hadoop lost-map-output
// semantics, then the map-side result merge, then reduce launch. A map
// output is lost when its node died ("node.crash", attempt 0 = the
// heartbeat epoch the job observes), when the fetch itself is failed by
// "mr.shuffle_fetch" (key = map index, attempt = fetch epoch), or when
// a shuffle run's CRC32C no longer verifies. Lost outputs re-execute
// their COMPLETED map task on the next live node; each epoch re-fetches
// only the re-executed outputs, and a task lost more than
// kMaxMapReexecutions times fails the job. Runs at kHigh priority —
// recovery unblocks reduces, so it overtakes queued regular work — and
// re-executed maps bypass the admission throttle for the same reason.
void MasterVerifyAndReduce(const std::shared_ptr<JobState>& s) {
  const JobConfig& cfg = s->config;
  if (cfg.cancel != nullptr && cfg.cancel->cancelled()) {
    // Don't start recovery or reduces for a job nobody wants anymore.
    FinishJob(s, cfg.cancel->status());
    return;
  }
  const int num_nodes = cfg.num_nodes;
  auto& outputs = s->map_outputs;
  JobCounters recovery_counters;
  FaultInjector* injector = cfg.fault_injector;
  std::vector<bool> dead(num_nodes > 0 ? num_nodes : 0, false);
  if (injector != nullptr) {
    for (int n = 0; n < num_nodes; ++n) {
      dead[n] = injector->ShouldFail(kFaultNodeCrash, n, 0);
    }
  }
  std::vector<int> reexecutions(s->splits.size(), 0);
  std::vector<size_t> fetch_pending(s->splits.size());
  for (size_t i = 0; i < s->splits.size(); ++i) fetch_pending[i] = i;
  for (int epoch = 0; !fetch_pending.empty(); ++epoch) {
    std::vector<size_t> lost;
    for (size_t i : fetch_pending) {
      MapTaskOutput& out = outputs[i];
      if (!out.status.ok()) {
        continue;  // nothing fetchable; the status merge handles it
      }
      if (num_nodes > 0 && dead[s->node_of[i]]) {
        recovery_counters.Add("map_outputs_lost_to_dead_nodes", 1);
        lost.push_back(i);
        continue;
      }
      if (injector != nullptr &&
          injector->ShouldFail(kFaultShuffleFetch,
                               static_cast<int64_t>(i), epoch)) {
        recovery_counters.Add("shuffle_fetch_corruptions", 1);
        lost.push_back(i);
        continue;
      }
      Status verify;
      for (int p = 0; verify.ok() && p < out.shuffle->num_partitions();
           ++p) {
        verify = out.shuffle->VerifyPartition(p);
      }
      if (!verify.ok()) {
        recovery_counters.Add("shuffle_fetch_corruptions", 1);
        lost.push_back(i);
        continue;
      }
      recovery_counters.Add("shuffle_partitions_verified",
                            out.shuffle->num_partitions());
    }
    if (lost.empty()) break;
    for (size_t i : lost) {
      if (++reexecutions[i] > kMaxMapReexecutions) {
        FinishJob(s, Status::IOError(
                         "map output " + std::to_string(i) + " lost " +
                         std::to_string(reexecutions[i]) +
                         " times, exceeding kMaxMapReexecutions (" +
                         std::to_string(kMaxMapReexecutions) + ")"));
        return;
      }
      if (num_nodes > 0) {
        int moved = -1;
        for (int k = 1; k <= num_nodes; ++k) {
          const int candidate = (s->node_of[i] + k) % num_nodes;
          if (!dead[candidate]) {
            moved = candidate;
            break;
          }
        }
        if (moved < 0) {
          FinishJob(s, Status::IOError(
                           "cannot re-execute map task " +
                           std::to_string(i) +
                           ": every compute node is dead"));
          return;
        }
        s->node_of[i] = moved;
      }
    }
    {
      // TaskGroup, not the throttle: the helping Wait() keeps the
      // master making progress even when every worker (and slot) is
      // occupied by another overlapped round's tasks.
      TaskGroup group(s->executor, Executor::Priority::kHigh);
      JobState* raw = s.get();
      for (size_t i : lost) {
        group.Submit([raw, i] { ExecuteMap(raw, i); });
      }
      group.Wait();
    }
    recovery_counters.Add("map_tasks_reexecuted",
                          static_cast<int64_t>(lost.size()));
    fetch_pending = std::move(lost);
  }

  // Map-side merge. A map error fails the job before any reducer runs,
  // matching the barriered engine's phase semantics.
  JobResult result;
  for (auto& out : outputs) {
    if (!out.status.ok()) {
      FinishJob(s, out.status);
      return;
    }
    result.counters.Merge(out.counters);
    result.tasks.push_back(out.record);
  }
  result.counters.Merge(recovery_counters);
  {
    // Parked in state until the last reduce task appends its side; the
    // launch → dequeue chain orders this against the finalizer.
    std::lock_guard<std::mutex> lock(s->mu);
    s->result = std::move(result);
  }

  const int R = cfg.num_reducers;
  s->reduce_outputs.resize(static_cast<size_t>(R));
  s->reduces_remaining.store(R, std::memory_order_release);
  for (int r = 0; r < R; ++r) {
    s->throttle->Submit([s, r] {
      RunReduceTask(s, r);
      if (s->reduces_remaining.fetch_sub(1, std::memory_order_acq_rel) ==
          1) {
        FinalizeFullJob(s);
      }
    });
  }
}

// Shuffle + reduce of one partition (map outputs are stable across
// reduce attempts, so a retried reducer re-merges the same frozen runs).
void RunReduceTask(const std::shared_ptr<JobState>& s, int r) {
  const JobConfig& cfg = s->config;
  auto run_attempt = [&](int attempt, ReduceTaskOutput* out) {
    out->record.type = TaskRecord::Type::kReduce;
    out->record.index = r;
    out->record.attempt = attempt;
    out->record.start_seconds = s->job_clock.ElapsedSeconds();
    if (cfg.cancel != nullptr && cfg.cancel->cancelled()) {
      out->status = cfg.cancel->status();
      out->record.end_seconds = s->job_clock.ElapsedSeconds();
      return;
    }
    FaultInjector* injector = cfg.fault_injector;
    if (injector != nullptr) {
      int latency = injector->LatencyMs(kFaultReduceAttempt, r, attempt);
      if (latency > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(latency));
      }
      out->status = injector->MaybeFail(kFaultReduceAttempt, r, attempt);
      if (!out->status.ok()) {
        out->record.end_seconds = s->job_clock.ElapsedSeconds();
        return;
      }
    }
    // Gather this partition's frozen runs from every map task, one per
    // spill, and merge the entry indexes, stable by (map task, spill)
    // order, which is emission order within a task. Uncompressed
    // runs cost no key/value copies: entries are views into the map
    // tasks' arenas. Compressed runs merge through lazy cursors that
    // inflate one 64 KiB block at a time.
    std::vector<const ShuffleRun*> runs;
    std::vector<std::unique_ptr<CompressedShuffleRunReader>> readers;
    std::vector<ShuffleRunReader*> reader_ptrs;
    int64_t shuffle_bytes = 0, shuffle_records = 0, compressed_bytes = 0;
    for (const auto& map_out : s->map_outputs) {
      if (r >= map_out.shuffle->num_partitions()) continue;
      if (map_out.shuffle->compressed()) {
        for (const auto& crun : map_out.shuffle->compressed_runs(r)) {
          readers.push_back(
              std::make_unique<CompressedShuffleRunReader>(crun.bytes));
          reader_ptrs.push_back(readers.back().get());
          shuffle_records += crun.records;
          shuffle_bytes += crun.payload_bytes;
          compressed_bytes += static_cast<int64_t>(crun.bytes.size());
        }
        continue;
      }
      for (const auto& run : map_out.shuffle->runs(r)) {
        runs.push_back(&run);
        shuffle_records += static_cast<int64_t>(run.size());
        for (const auto& e : run) {
          shuffle_bytes +=
              static_cast<int64_t>(e.key.size() + e.value.size());
        }
      }
    }
    out->counters.Add("reduce_shuffle_bytes", shuffle_bytes);
    out->counters.Add("reduce_shuffle_records", shuffle_records);
    if (compressed_bytes > 0) {
      out->counters.Add("reduce_shuffle_bytes_compressed", compressed_bytes);
    }

    ShuffleRunMerger merger(runs, reader_ptrs);
    ReduceContextImpl ctx(&out->values, &out->counters);
    auto reducer = s->reducer_factory();
    Status st;
    if (readers.empty()) {
      // Zero-copy grouping: entries and their views are stable for the
      // lifetime of the frozen runs, so a whole key group accumulates as
      // views with no copies.
      const ShuffleEntry* current = nullptr;
      std::vector<std::string_view> values;
      auto flush = [&]() -> Status {
        if (current == nullptr) return Status::OK();
        return reducer->ReduceViews(current->key, values, &ctx);
      };
      for (const ShuffleEntry* e = merger.Next(); e != nullptr && st.ok();
           e = merger.Next()) {
        if (current == nullptr || !ShuffleKeyEqual(*e, *current)) {
          st = flush();
          current = e;  // stable: frozen runs never reallocate
          values.clear();
        }
        values.push_back(e->value);
      }
      if (st.ok()) st = flush();
    } else {
      // Streaming grouping: a lazy cursor's entry dies on the next
      // Next(), but ReduceViews needs the whole group at once — so the
      // current key and the group's value bytes accumulate in reused
      // owned buffers (cleared per group, capacity kept, so the steady
      // state allocates nothing).
      std::string current_key;
      uint64_t cur_prefix = 0, cur_prefix2 = 0;
      bool has_group = false;
      std::string group_buf;
      std::vector<std::pair<size_t, size_t>> spans;
      std::vector<std::string_view> values;
      auto flush = [&]() -> Status {
        if (!has_group) return Status::OK();
        values.clear();
        const std::string_view buf = group_buf;
        for (const auto& [off, len] : spans) {
          values.push_back(buf.substr(off, len));
        }
        return reducer->ReduceViews(current_key, values, &ctx);
      };
      for (const ShuffleEntry* e = merger.Next(); e != nullptr && st.ok();
           e = merger.Next()) {
        if (!has_group || e->prefix != cur_prefix ||
            e->prefix2 != cur_prefix2 || e->key != current_key) {
          st = flush();
          current_key.assign(e->key);
          cur_prefix = e->prefix;
          cur_prefix2 = e->prefix2;
          group_buf.clear();
          spans.clear();
          has_group = true;
        }
        spans.emplace_back(group_buf.size(), e->value.size());
        group_buf.append(e->value);
      }
      if (st.ok()) st = flush();
      int64_t decompress_micros = 0;
      for (const auto& reader : readers) {
        // A mid-stream decode failure drains its cursor silently; the
        // status check here is what fails (and retries) the attempt.
        if (st.ok() && !reader->status().ok()) st = reader->status();
        decompress_micros += reader->decompress_micros();
      }
      out->counters.Add("shuffle_decompress_micros", decompress_micros);
    }
    ctx.FlushCounters();
    out->status = st;
    out->record.end_seconds = s->job_clock.ElapsedSeconds();
    out->record.input_bytes = shuffle_bytes;
    out->record.output_bytes = out->counters.Get("reduce_output_bytes");
  };
  ReduceTaskOutput& slot = s->reduce_outputs[static_cast<size_t>(r)];
  const int retries = RunTaskAttempts(cfg, run_attempt, &slot);
  if (retries > 0) slot.counters.Add("reduce_task_retries", retries);
  // Per-partition readiness edge: downstream rounds may start on this
  // partition now, while sibling reduces are still running.
  if (slot.status.ok()) HandOver(cfg, r, &slot.values, &slot.counters);
}

void FinalizeFullJob(const std::shared_ptr<JobState>& s) {
  JobResult result;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    result = std::move(s->result);
  }
  const int R = s->config.num_reducers;
  result.reducer_outputs.resize(static_cast<size_t>(R));
  for (int r = 0; r < R; ++r) {
    ReduceTaskOutput& out = s->reduce_outputs[static_cast<size_t>(r)];
    if (!out.status.ok()) {
      FinishJob(s, out.status);
      return;
    }
    result.counters.Merge(out.counters);
    result.tasks.push_back(out.record);
    result.reducer_outputs[static_cast<size_t>(r)] =
        std::move(out.values);
  }
  {
    std::lock_guard<std::mutex> lock(s->mu);
    s->result = std::move(result);
    s->done = true;
  }
  s->cv.notify_all();
}

// Admits every map task: gated splits register on their ReadySignal and
// only enter the admission throttle once the upstream partition lands
// (a waiting split holds no task slot). The last map to finish launches
// the continuation at kHigh priority.
void SubmitMaps(const std::shared_ptr<JobState>& s) {
  const size_t n = s->splits.size();
  for (size_t i = 0; i < n; ++i) {
    std::function<void()> task = [s, i] {
      ExecuteMap(s.get(), i);
      if (s->maps_remaining.fetch_sub(1, std::memory_order_acq_rel) ==
          1) {
        s->executor->Submit(
            [s] {
              if (s->map_only) {
                FinalizeMapOnlyJob(s);
              } else {
                MasterVerifyAndReduce(s);
              }
            },
            Executor::Priority::kHigh);
      }
    };
    const std::shared_ptr<ReadySignal>& gate = s->splits[i].ready;
    if (gate != nullptr) {
      gate->OnReady([s, task = std::move(task)] {
        s->throttle->Submit(std::move(task));
      });
      if (s->config.cancel != nullptr) {
        // A cancelled upstream round may never notify this gate; fire it
        // on cancellation so the map task runs (and fails fast with
        // Cancelled) instead of stranding the countdown — otherwise
        // Handle::Wait() on a cancelled pipelined job would hang. Notify
        // is idempotent, so racing with the real readiness edge is fine;
        // the callback holds only the gate, not the job state.
        s->config.cancel->OnCancel([gate] { gate->Notify(); });
      }
    } else {
      s->throttle->Submit(std::move(task));
    }
  }
}

std::shared_ptr<JobState> StartJob(const JobConfig& config,
                                   const std::vector<InputSplit>& splits,
                                   const MapperFactory& mapper_factory,
                                   const ReducerFactory& reducer_factory,
                                   const Partitioner* partitioner,
                                   bool map_only) {
  auto s = std::make_shared<JobState>();
  s->config = config;
  s->splits = splits;
  s->mapper_factory = mapper_factory;
  s->reducer_factory = reducer_factory;
  s->partitioner =
      partitioner != nullptr ? partitioner : &s->default_partitioner;
  s->map_only = map_only;
  Status valid = ValidateJobConfig(config, /*needs_reducers=*/!map_only);
  if (!valid.ok()) {
    FinishJob(s, std::move(valid));
    return s;
  }
  s->executor =
      config.executor != nullptr ? config.executor : Executor::Shared();
  s->throttle = config.throttle != nullptr
                    ? config.throttle
                    : std::make_shared<Throttle>(s->executor,
                                                 config.max_parallel_tasks);
  const size_t n = splits.size();
  if (config.num_nodes > 0) {
    // Node assignment of the whole-node failure model: locality-hinted
    // tasks run on their preferred node, the rest round-robin.
    s->node_of.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const int preferred = splits[i].preferred_node;
      s->node_of[i] =
          (preferred >= 0 ? preferred : static_cast<int>(i)) %
          config.num_nodes;
    }
  } else {
    s->node_of.assign(n, -1);
  }
  s->map_outputs.resize(n);
  s->maps_remaining.store(static_cast<int>(n),
                          std::memory_order_release);
  if (n == 0) {
    // No countdown will fire; run the continuation directly.
    if (map_only) {
      FinalizeMapOnlyJob(s);
    } else {
      s->executor->Submit([s] { MasterVerifyAndReduce(s); },
                          Executor::Priority::kHigh);
    }
    return s;
  }
  SubmitMaps(s);
  return s;
}

}  // namespace

Result<JobResult> MapReduceJob::Handle::Wait() {
  JobState& s = *state_;
  std::unique_lock<std::mutex> lock(s.mu);
  s.cv.wait(lock, [&s] { return s.done; });
  if (s.waited) {
    return Status::Internal("MapReduceJob::Handle waited twice");
  }
  s.waited = true;
  if (!s.error.ok()) return s.error;
  return std::move(s.result);
}

MapReduceJob::MapReduceJob(JobConfig config) : config_(std::move(config)) {}

MapReduceJob::Handle MapReduceJob::Start(
    const std::vector<InputSplit>& splits,
    const MapperFactory& mapper_factory,
    const ReducerFactory& reducer_factory,
    const Partitioner* partitioner) {
  return Handle(StartJob(config_, splits, mapper_factory, reducer_factory,
                         partitioner, /*map_only=*/false));
}

MapReduceJob::Handle MapReduceJob::StartMapOnly(
    const std::vector<InputSplit>& splits,
    const MapperFactory& mapper_factory) {
  return Handle(StartJob(config_, splits, mapper_factory,
                         /*reducer_factory=*/nullptr, /*partitioner=*/nullptr,
                         /*map_only=*/true));
}

Result<JobResult> MapReduceJob::Run(const std::vector<InputSplit>& splits,
                                    const MapperFactory& mapper_factory,
                                    const ReducerFactory& reducer_factory,
                                    const Partitioner* partitioner) {
  return Start(splits, mapper_factory, reducer_factory, partitioner)
      .Wait();
}

Result<JobResult> MapReduceJob::RunMapOnly(
    const std::vector<InputSplit>& splits,
    const MapperFactory& mapper_factory) {
  return StartMapOnly(splits, mapper_factory).Wait();
}

}  // namespace gesall
