// In-process MapReduce runtime (functional analog of Hadoop MR, paper §3).
//
// Map tasks consume input splits and emit key-value pairs into
// per-reducer buffers with sort-and-spill semantics (the
// mapreduce.task.io.sort.mb behavior the paper tunes in §4.2); reduce
// tasks merge the sorted map outputs and invoke the reducer per key
// group. Execution is multi-threaded but the output is deterministic:
// ties between equal keys resolve by (map task index, emission order).
//
// The shuffle data path is zero-copy (see mr/shuffle_buffer.h): emitted
// bytes land in per-partition arenas, sorting and merging move 48-byte
// index entries, and reducers receive string_view groups into the frozen
// arenas.
//
// Every map task, of a full or a map-only job, runs one path: load the
// split, run the mapper over it, and route each emit. A full job's emits
// enter the shuffle; a map-only job's tasks keep their values. Either
// way a task's output reaches its consumer once: a reduce's values, or a
// map-only task's, go to JobConfig::on_partition_output from the worker
// that made them when one is set, and into JobResult otherwise.
//
// Fault tolerance mirrors Hadoop's task-attempt model: a failed task
// attempt (split load error, mapper/reducer error, or injected fault) is
// retried from fresh state up to JobConfig::max_task_attempts times, and
// a task that exhausts them fails the job. Wire a seeded FaultInjector
// into JobConfig::fault_injector to exercise these paths reproducibly.
//
// Whole-node failure follows Hadoop's lost-map-output semantics: with
// JobConfig::num_nodes set, every map task runs on a simulated node, and
// before reducers fetch, the job master consults the "node.crash" fault
// point. Map outputs on a dead node — or outputs whose shuffle-run
// CRC32C no longer verifies, or fetches failed by "mr.shuffle_fetch" —
// are lost, so their COMPLETED map tasks are re-executed on a live node,
// at most kMaxMapReexecutions times per task.

#ifndef GESALL_MR_MAPREDUCE_H_
#define GESALL_MR_MAPREDUCE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mr/shuffle_buffer.h"
#include "util/cancel.h"
#include "util/executor.h"
#include "util/status.h"

namespace gesall {

class FaultInjector;

namespace internal {
struct JobState;
}  // namespace internal

/// \brief Named job counters (Hadoop-counter analog).
class JobCounters {
 public:
  void Add(const std::string& name, int64_t delta) { values_[name] += delta; }
  int64_t Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
  }
  void Merge(const JobCounters& other) {
    for (const auto& [k, v] : other.values_) values_[k] += v;
  }
  const std::map<std::string, int64_t>& values() const { return values_; }

 private:
  std::map<std::string, int64_t> values_;
};

/// \brief Context passed to map functions.
class MapContext {
 public:
  virtual ~MapContext() = default;
  virtual void Emit(std::string key, std::string value) = 0;
  /// Zero-copy emit: the engine copies the bytes straight into its
  /// shuffle arena, so hot mappers can emit from scratch buffers without
  /// constructing std::strings. Default bridges to Emit() for custom
  /// contexts.
  virtual void EmitView(std::string_view key, std::string_view value) {
    Emit(std::string(key), std::string(value));
  }
  virtual void IncrementCounter(const std::string& name,
                                int64_t delta = 1) = 0;
};

/// \brief Context passed to reduce functions.
class ReduceContext {
 public:
  virtual ~ReduceContext() = default;
  /// Emits one output value (order preserved per reducer).
  virtual void Emit(std::string value) = 0;
  virtual void IncrementCounter(const std::string& name,
                                int64_t delta = 1) = 0;
};

/// \brief User map function over one input split.
class Mapper {
 public:
  virtual ~Mapper() = default;
  virtual Status Map(const std::string& input, MapContext* ctx) = 0;
};

/// \brief User reduce function over one key group (values arrive in
/// deterministic shuffle order).
class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual Status Reduce(const std::string& key,
                        const std::vector<std::string>& values,
                        ReduceContext* ctx) = 0;
  /// Zero-copy entry point the engine actually calls: key and values are
  /// views into the frozen shuffle arenas, valid for the duration of the
  /// call. The default materializes owned strings and delegates to
  /// Reduce(), so existing reducers work unchanged; hot reducers
  /// override this to skip the copies.
  virtual Status ReduceViews(std::string_view key,
                             const std::vector<std::string_view>& values,
                             ReduceContext* ctx) {
    return Reduce(std::string(key),
                  std::vector<std::string>(values.begin(), values.end()),
                  ctx);
  }
};

/// \brief Routes keys to reducers.
class Partitioner {
 public:
  virtual ~Partitioner() = default;
  virtual int Partition(std::string_view key, int num_partitions) const = 0;
};

/// \brief Default: stable hash of the key bytes.
class HashPartitioner : public Partitioner {
 public:
  int Partition(std::string_view key, int num_partitions) const override;
};

/// \brief Range partitioner over sorted split points: keys below
/// boundaries[i] (bytewise) go to partition i; the rest to the last.
class RangePartitioner : public Partitioner {
 public:
  explicit RangePartitioner(std::vector<std::string> boundaries)
      : boundaries_(std::move(boundaries)) {}
  int Partition(std::string_view key, int num_partitions) const override;

 private:
  std::vector<std::string> boundaries_;
};

/// \brief Lazily-loaded input split with optional locality hint.
struct InputSplit {
  std::function<Result<std::string>()> load;
  int preferred_node = -1;
  /// Optional readiness gate: the map task for this split is not even
  /// admitted to the job's task slots until the signal fires (it holds
  /// no slot while waiting). This is the per-partition edge of the
  /// pipeline's round DAG — e.g. "sort partition c is on the DFS" gates
  /// the variant-calling split for chromosome c. Null = ready now.
  std::shared_ptr<ReadySignal> ready;
};

/// \brief Wraps in-memory bytes as a split.
InputSplit InlineSplit(std::string data);

/// Counter charged with the wall time of JobConfig::on_partition_output,
/// per reduce or map-only task: work that runs after the task's
/// TaskRecord closed.
inline constexpr char kPartitionOutputMicros[] = "partition_output_micros";

/// Times one map task's output may be lost (dead node, corrupt run, or
/// injected fetch failure) and the task re-executed before the job fails
/// (mapreduce.reduce.shuffle fetch-failure limit analog).
inline constexpr int kMaxMapReexecutions = 2;

/// \brief Job-level configuration (Hadoop-parameter analogs).
struct JobConfig {
  int num_reducers = 4;
  /// Concurrent tasks — the cluster's task slots. Enforced by a Throttle
  /// over the executor, not by pool width: the executor is shared and
  /// persistent, the slot cap is per job (or per throttle, see below).
  int max_parallel_tasks = 4;

  // --- Execution engine ---

  /// Executor the job's tasks run on (not owned). nullptr uses the
  /// process-wide Executor::Shared(). A job run never constructs an
  /// executor of its own.
  Executor* executor = nullptr;
  /// Optional shared admission throttle. When several jobs overlap (the
  /// pipelined round DAG), pointing them at one Throttle makes
  /// max_parallel_tasks a global cap across the overlapping rounds
  /// instead of multiplying slots per job. Null = private throttle of
  /// max_parallel_tasks slots.
  std::shared_ptr<Throttle> throttle;
  /// Fires once per reduce partition of a full job, or once per map task
  /// of a map-only job, from the worker thread, as soon as that task
  /// succeeds — while other tasks may still be running, and before
  /// Handle::Wait() can return. This is what lets a downstream round
  /// start per-partition work ahead of the job barrier. Arguments are the
  /// partition index (the reduce, or the map task), its output values
  /// and that task's counters. The callback runs after the task's
  /// TaskRecord closed; its wall time is added to that task's counters as
  /// kPartitionOutputMicros. Values handed to it are not returned again:
  /// their JobResult::reducer_outputs entry is empty.
  std::function<void(int partition, const std::vector<std::string>& values,
                     const JobCounters& counters)>
      on_partition_output;
  /// Map-side sort buffer; exceeding it spills a sorted run to "disk".
  int64_t sort_buffer_bytes = 64LL << 20;

  // --- Fault tolerance (Hadoop task-attempt analogs) ---

  /// Attempts per task before the job fails (mapreduce.map/reduce.maxattempts).
  int max_task_attempts = 2;
  /// Optional chaos source (not owned). nullptr disables injection.
  FaultInjector* fault_injector = nullptr;
  /// Optional cooperative cancellation. Once the token flips, no new
  /// task attempt starts (in-flight attempts finish), cancelled attempts
  /// are never retried, gated splits are released instead of waiting on
  /// signals that may never fire, and the job completes with
  /// Status::Cancelled carrying the token's cause.
  std::shared_ptr<CancelToken> cancel;

  // --- Whole-node failure model (lost-map-output re-execution) ---

  /// Compute nodes of the simulated cluster. Map task i runs on node
  /// (preferred_node >= 0 ? preferred_node : i) % num_nodes; the
  /// "node.crash" fault point (key = node id, attempt = 0) decides which
  /// nodes die before the reduce-side fetch. 0 disables the node model.
  /// With or without it, every frozen shuffle run is CRC32C-sealed at
  /// spill time and verified at reduce-fetch time; a mismatch counts as
  /// a lost map output.
  int num_nodes = 0;

  // --- Compressed shuffle (mapreduce.map.output.compress analog) ---

  /// Serialize every sealed spill run through the BGZF codec and release
  /// its raw arena bytes; reduce-side merge cursors decompress lazily,
  /// one 64 KiB block at a time. Output is byte-identical to the
  /// uncompressed path (same stable sort, same run-index tie-breaks).
  /// Raw-vs-compressed byte and codec cpu-time counters land in
  /// shuffle_spill_bytes_{raw,compressed} / shuffle_{com,decom}press_micros.
  bool compress_shuffle = false;
  /// zlib level of the spill codec (-1 = zlib default; 0..9 otherwise).
  int shuffle_compress_level = -1;
};

/// \brief Wall-clock record of one task, for progress plots (paper Fig 7).
struct TaskRecord {
  enum class Type { kMap, kReduce };
  Type type = Type::kMap;
  int index = 0;
  double start_seconds = 0;
  double end_seconds = 0;
  int64_t input_bytes = 0;
  int64_t output_bytes = 0;
  /// Attempt number that produced this record (0 = first attempt).
  int attempt = 0;
  /// Simulated compute node a map task ran on (-1 for reduces and
  /// without a node model). A re-executed map records the node it moved
  /// to.
  int node = -1;
};

/// \brief Result of a job: per-reducer emitted values + counters.
struct JobResult {
  std::vector<std::vector<std::string>> reducer_outputs;
  JobCounters counters;
  std::vector<TaskRecord> tasks;
};

using MapperFactory = std::function<std::unique_ptr<Mapper>()>;
using ReducerFactory = std::function<std::unique_ptr<Reducer>()>;

/// \brief Executes MapReduce jobs as dependency-tracked tasks on a
/// shared persistent executor (see JobConfig::executor).
class MapReduceJob {
 public:
  /// Completion token of an asynchronously started job.
  class Handle {
   public:
    /// Blocks until the job finishes and moves the result out.
    /// Single-consume: a second Wait() returns an error status.
    Result<JobResult> Wait();

   private:
    friend class MapReduceJob;
    explicit Handle(std::shared_ptr<internal::JobState> state)
        : state_(std::move(state)) {}
    std::shared_ptr<internal::JobState> state_;
  };

  explicit MapReduceJob(JobConfig config = {});

  /// Full map-shuffle-reduce round (Start + Wait).
  Result<JobResult> Run(const std::vector<InputSplit>& splits,
                        const MapperFactory& mapper_factory,
                        const ReducerFactory& reducer_factory,
                        const Partitioner* partitioner = nullptr);

  /// Map-only round (paper Round 1): reducer_outputs[i] holds the values
  /// emitted by map task i, in emission order, unless
  /// on_partition_output took them (Start + Wait).
  Result<JobResult> RunMapOnly(const std::vector<InputSplit>& splits,
                               const MapperFactory& mapper_factory);

  /// Starts a full round asynchronously and returns immediately; the job
  /// runs as executor tasks (maps gated on their splits' ready signals,
  /// throttled by the admission cap, verified and re-executed by a
  /// high-priority master task, reduces firing on_partition_output as
  /// they land; a map-only job's maps fire it instead). Splits and factories are copied; a caller-provided
  /// partitioner must outlive the job.
  Handle Start(const std::vector<InputSplit>& splits,
               const MapperFactory& mapper_factory,
               const ReducerFactory& reducer_factory,
               const Partitioner* partitioner = nullptr);

  /// Map-only variant of Start().
  Handle StartMapOnly(const std::vector<InputSplit>& splits,
                      const MapperFactory& mapper_factory);

 private:
  JobConfig config_;
};

}  // namespace gesall

#endif  // GESALL_MR_MAPREDUCE_H_
