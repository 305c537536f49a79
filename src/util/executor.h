// Persistent work-stealing executor — the one task engine shared by MR
// jobs, the DFS write/scrub checksum path, the pipeline round DAG, and
// the benchmarks (the paper's "granularity of scheduling" story, §4.1:
// round times are dominated by stragglers at phase barriers, so tasks
// from adjacent phases must be able to fill each other's idle slots).
//
// Design:
//  - One deque per (worker, priority). The owner pops FIFO from the
//    front; an idle worker steals the back HALF of the richest deque of
//    a victim, amortizing steal traffic (steal-half, Cilk-style).
//  - Two priorities: kHigh for coordination tasks that unblock others
//    (the MR job master's verify/fetch phase), kNormal for everything
//    else.
//  - Executor::Shared() is the process-lifetime instance; constructing
//    throwaway pools per phase is exactly the churn this replaces
//    (instances_created() lets tests assert no one regressed into it).
//
// Companions:
//  - TaskGroup: completion token for a batch. Wait() HELPS: it runs the
//    group's still-queued closures inline, so a task already holding a
//    lock or an executor slot can wait on subtasks without deadlocking
//    even when every worker is busy or blocked.
//  - Throttle: admission cap modeling the cluster's task slots
//    (max_parallel_tasks): at most N submitted tasks in flight, the rest
//    queued FIFO. Shareable across jobs so overlapped rounds compete for
//    the same slots instead of multiplying them.
//  - ReadySignal: idempotent latch carrying per-partition readiness
//    edges (e.g. "round-4 partition c is sorted") to gated input splits.

#ifndef GESALL_UTIL_EXECUTOR_H_
#define GESALL_UTIL_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace gesall {

/// \brief Scheduling telemetry (totals since construction).
struct ExecutorStats {
  int64_t tasks_executed = 0;
  /// Steal operations that moved at least one task.
  int64_t steals = 0;
  /// Tasks migrated by those steals.
  int64_t tasks_stolen = 0;
  /// Total submit-to-dequeue latency across tasks.
  int64_t queue_wait_micros = 0;
};

/// \brief Per-tag accounting (see Executor::TagScope): how much executor
/// capacity the tasks carrying one tag have consumed. The service layer
/// tags every job's tasks with the job id and charges busy_micros against
/// the owning tenant's quota for weighted-fair scheduling.
struct TagStats {
  int64_t tasks_executed = 0;
  int64_t busy_micros = 0;
};

/// \brief Fixed-size work-stealing thread pool with task priorities.
/// Submit is thread-safe and may be called from worker threads (the task
/// lands on the submitting worker's own deque, preserving locality).
class Executor {
 public:
  enum class Priority { kHigh = 0, kNormal = 1 };
  static constexpr int kNumPriorities = 2;

  explicit Executor(int num_threads);
  /// Drains every queued task, then joins the workers.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  void Submit(std::function<void()> fn,
              Priority priority = Priority::kNormal);
  /// Submit with an explicit accounting tag instead of the calling
  /// thread's current one — used by Throttle, whose queued tasks launch
  /// from whichever worker frees a slot, not from the submitter.
  void Submit(std::function<void()> fn, Priority priority, uint64_t tag);

  int num_threads() const { return static_cast<int>(workers_.size()); }
  ExecutorStats stats() const;

  /// Accounting consumed by tasks tagged `tag` on this executor (tag 0,
  /// the default, is not tracked). Tasks submitted while a TagScope is
  /// active inherit its tag, including nested submits from inside a
  /// tagged task — the tag follows the work across workers and steals.
  TagStats tag_stats(uint64_t tag) const;

  /// The calling thread's current accounting tag (0 outside any scope).
  static uint64_t CurrentTag();

  /// \brief RAII accounting scope: tasks submitted (transitively) by
  /// this thread while the scope is live carry `tag`.
  class TagScope {
   public:
    explicit TagScope(uint64_t tag);
    ~TagScope();
    TagScope(const TagScope&) = delete;
    TagScope& operator=(const TagScope&) = delete;

   private:
    uint64_t prev_;
  };

  /// The process-lifetime executor (max(4, hardware_concurrency)
  /// workers), created on first use and intentionally never destroyed.
  static Executor* Shared();

  /// Total Executor constructions in this process — regression guard
  /// against per-phase pool churn (one shared instance per job run).
  static int64_t instances_created();

 private:
  struct Task {
    std::function<void()> fn;
    int64_t enqueue_micros = 0;
    uint64_t tag = 0;
  };
  struct Worker {
    std::mutex mu;
    std::deque<Task> queues[kNumPriorities];  // guarded by mu
    std::thread thread;
  };

  void WorkerLoop(int self);
  bool PopOwn(int self, Task* task);
  bool StealInto(int self, Task* task);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<int> next_worker_{0};  // round-robin for external submits
  std::atomic<int64_t> pending_{0};  // queued, not yet dequeued
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  bool stop_ = false;  // guarded by idle_mu_

  std::atomic<int64_t> tasks_executed_{0};
  std::atomic<int64_t> steals_{0};
  std::atomic<int64_t> tasks_stolen_{0};
  std::atomic<int64_t> queue_wait_micros_{0};

  mutable std::mutex tag_mu_;
  std::unordered_map<uint64_t, TagStats> tag_stats_;  // guarded by tag_mu_
};

/// \brief Completion token for a batch of executor tasks.
///
/// Wait() is a HELPING wait: while closures of this group are still
/// queued, the waiter pops and runs them inline. Progress is therefore
/// guaranteed even when the executor is saturated or every worker is
/// blocked — which is what makes it safe to wait on a group from inside
/// an executor task (the MR job master re-executing lost maps) or while
/// holding a lock whose critical sections the closures never enter.
class TaskGroup {
 public:
  explicit TaskGroup(Executor* executor,
                     Executor::Priority priority =
                         Executor::Priority::kNormal);

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Submit(std::function<void()> fn);

  /// Blocks until every submitted closure has finished, running queued
  /// ones inline. All side effects of the closures happen-before Wait()
  /// returns.
  void Wait();

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::function<void()>> queue;  // not yet started
    int running = 0;                          // started, not finished
  };
  static void RunOne(const std::shared_ptr<State>& state);

  std::shared_ptr<State> state_;
  Executor* executor_;
  Executor::Priority priority_;
};

/// \brief FIFO admission cap over an executor: at most max_in_flight
/// submitted tasks run concurrently; completion launches the next. This
/// is the cluster's "task slots" (mapreduce max_parallel_tasks) on top
/// of a wider shared executor, and can be shared by several jobs so
/// overlapped rounds compete for the same slots. Tasks run at kNormal.
class Throttle {
 public:
  Throttle(Executor* executor, int max_in_flight);

  Throttle(const Throttle&) = delete;
  Throttle& operator=(const Throttle&) = delete;

  void Submit(std::function<void()> fn);

  int max_in_flight() const { return max_in_flight_; }

 private:
  // Pending tasks keep the accounting tag captured at Submit() time:
  // a queued task launches from whichever worker frees a slot (possibly
  // running a differently-tagged job), so the submitter's tag must
  // travel with the closure instead of being re-read from the launcher.
  struct PendingTask {
    std::function<void()> fn;
    uint64_t tag = 0;
  };
  struct State {
    std::mutex mu;
    std::deque<PendingTask> pending;
    int in_flight = 0;
  };
  static void Launch(const std::shared_ptr<State>& state,
                     Executor* executor, std::function<void()> fn,
                     uint64_t tag);

  std::shared_ptr<State> state_;
  Executor* executor_;
  int max_in_flight_;
};

/// \brief Idempotent readiness latch with callbacks — the per-partition
/// edge of the round DAG ("partition c of round N is on the DFS").
/// Callbacks registered before the signal fire inside Notify(), in
/// registration order; callbacks registered after run inline.
class ReadySignal {
 public:
  void Notify();
  bool ready() const;
  /// `fn` runs exactly once, on whichever thread crosses the edge.
  void OnReady(std::function<void()> fn);

 private:
  mutable std::mutex mu_;
  bool ready_ = false;  // guarded by mu_
  std::vector<std::function<void()>> callbacks_;
};

}  // namespace gesall

#endif  // GESALL_UTIL_EXECUTOR_H_
