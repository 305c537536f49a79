#include "util/executor.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace gesall {
namespace {

std::atomic<int64_t> g_instances_created{0};

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Worker threads submit to their own deque; external threads round-robin.
thread_local Executor* tls_executor = nullptr;
thread_local int tls_worker_index = -1;
// Accounting tag inherited by every Submit from this thread. Workers set
// it to the running task's tag so nested submits charge the same job.
thread_local uint64_t tls_tag = 0;

}  // namespace

Executor::TagScope::TagScope(uint64_t tag) : prev_(tls_tag) {
  tls_tag = tag;
}

Executor::TagScope::~TagScope() { tls_tag = prev_; }

uint64_t Executor::CurrentTag() { return tls_tag; }

Executor::Executor(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  g_instances_created.fetch_add(1, std::memory_order_relaxed);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (int i = 0; i < num_threads; ++i) {
    workers_[static_cast<size_t>(i)]->thread =
        std::thread([this, i] { WorkerLoop(i); });
  }
}

Executor::~Executor() {
  // Drain: workers keep running until nothing is queued, then stop.
  {
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
    stop_ = true;
  }
  idle_cv_.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void Executor::Submit(std::function<void()> fn, Priority priority) {
  Submit(std::move(fn), priority, tls_tag);
}

void Executor::Submit(std::function<void()> fn, Priority priority,
                      uint64_t tag) {
  Task task;
  task.fn = std::move(fn);
  task.enqueue_micros = NowMicros();
  task.tag = tag;
  int target;
  if (tls_executor == this && tls_worker_index >= 0) {
    target = tls_worker_index;
  } else {
    target = next_worker_.fetch_add(1, std::memory_order_relaxed) %
             static_cast<int>(workers_.size());
  }
  Worker& w = *workers_[static_cast<size_t>(target)];
  {
    std::lock_guard<std::mutex> lock(w.mu);
    w.queues[static_cast<int>(priority)].push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  // Waiters evaluate their predicate on pending_ while holding idle_mu_
  // and only then block. pending_ was bumped outside the mutex, so a
  // bare notify could land in the window between a waiter's predicate
  // check (saw the old count) and its block — a lost wakeup that leaves
  // a worker (or the destructor's drain wait) asleep with work queued.
  // Passing through the mutex, even empty-handed, closes the window: the
  // waiter either already blocked (the notify reaches it) or has not yet
  // locked and will re-read the new count.
  { std::lock_guard<std::mutex> lock(idle_mu_); }
  idle_cv_.notify_all();
}

bool Executor::PopOwn(int self, Task* task) {
  Worker& w = *workers_[static_cast<size_t>(self)];
  std::lock_guard<std::mutex> lock(w.mu);
  for (auto& queue : w.queues) {
    if (!queue.empty()) {
      *task = std::move(queue.front());
      queue.pop_front();
      return true;
    }
  }
  return false;
}

bool Executor::StealInto(int self, Task* task) {
  const int n = static_cast<int>(workers_.size());
  Worker& me = *workers_[static_cast<size_t>(self)];
  for (int off = 1; off < n; ++off) {
    const int victim_index = (self + off) % n;
    Worker& victim = *workers_[static_cast<size_t>(victim_index)];
    // Never hold two worker locks at once (two mutual thieves would
    // deadlock): move the stolen run into a local buffer under the
    // victim's lock, then transfer the surplus under our own.
    std::deque<Task> stolen;
    int priority = -1;
    {
      std::lock_guard<std::mutex> victim_lock(victim.mu);
      for (int p = 0; p < kNumPriorities; ++p) {
        auto& queue = victim.queues[p];
        if (queue.empty()) continue;
        // Steal the back half (rounded up), preserving relative order
        // so the migrated run still executes FIFO on the thief.
        const size_t count = (queue.size() + 1) / 2;
        const size_t split = queue.size() - count;
        for (size_t i = split; i < queue.size(); ++i) {
          stolen.push_back(std::move(queue[i]));
        }
        queue.erase(queue.begin() + static_cast<ptrdiff_t>(split),
                    queue.end());
        priority = p;
        break;
      }
    }
    if (stolen.empty()) continue;
    steals_.fetch_add(1, std::memory_order_relaxed);
    tasks_stolen_.fetch_add(static_cast<int64_t>(stolen.size()),
                            std::memory_order_relaxed);
    *task = std::move(stolen.front());
    stolen.pop_front();
    if (!stolen.empty()) {
      std::lock_guard<std::mutex> my_lock(me.mu);
      auto& mine = me.queues[priority];
      for (auto& t : stolen) mine.push_back(std::move(t));
    }
    return true;
  }
  return false;
}

void Executor::WorkerLoop(int self) {
  tls_executor = this;
  tls_worker_index = self;
  Task task;
  for (;;) {
    bool have = PopOwn(self, &task);
    if (!have) have = StealInto(self, &task);
    if (have) {
      queue_wait_micros_.fetch_add(NowMicros() - task.enqueue_micros,
                                   std::memory_order_relaxed);
      // pending_ counts queued-not-dequeued; decrement before running so
      // the destructor's drain wait can't return while a task is queued.
      const int64_t left =
          pending_.fetch_sub(1, std::memory_order_acq_rel) - 1;
      {
        TagScope scope(task.tag);
        if (task.tag != 0) {
          const int64_t begin = NowMicros();
          task.fn();
          const int64_t busy = NowMicros() - begin;
          std::lock_guard<std::mutex> lock(tag_mu_);
          TagStats& ts = tag_stats_[task.tag];
          ++ts.tasks_executed;
          ts.busy_micros += busy;
        } else {
          task.fn();
        }
      }
      task.fn = nullptr;
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      if (left == 0) {
        // Same lost-wakeup hazard as Submit, mirrored: the destructor's
        // drain predicate reads pending_ under idle_mu_; pass through
        // the mutex so this notify can't slip into its check-then-block
        // window.
        { std::lock_guard<std::mutex> lock(idle_mu_); }
        idle_cv_.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(idle_mu_);
    if (stop_ && pending_.load(std::memory_order_acquire) == 0) return;
    idle_cv_.wait(lock, [this] {
      return stop_ || pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_ && pending_.load(std::memory_order_acquire) == 0) return;
  }
}

TagStats Executor::tag_stats(uint64_t tag) const {
  std::lock_guard<std::mutex> lock(tag_mu_);
  auto it = tag_stats_.find(tag);
  return it == tag_stats_.end() ? TagStats{} : it->second;
}

ExecutorStats Executor::stats() const {
  ExecutorStats s;
  s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.tasks_stolen = tasks_stolen_.load(std::memory_order_relaxed);
  s.queue_wait_micros =
      queue_wait_micros_.load(std::memory_order_relaxed);
  return s;
}

Executor* Executor::Shared() {
  // Leaked on purpose: worker threads must never race static
  // destruction, and the executor is meant to live as long as the
  // process anyway.
  static Executor* shared = new Executor(std::max(
      4, static_cast<int>(std::thread::hardware_concurrency())));
  return shared;
}

int64_t Executor::instances_created() {
  return g_instances_created.load(std::memory_order_relaxed);
}

TaskGroup::TaskGroup(Executor* executor, Executor::Priority priority)
    : state_(std::make_shared<State>()),
      executor_(executor),
      priority_(priority) {}

void TaskGroup::RunOne(const std::shared_ptr<State>& state) {
  // Each executor thunk drains greedily: the group's queue is the source
  // of truth, so a Wait()er helping inline and a worker thunk can both
  // pull from it without double-running anything.
  for (;;) {
    std::function<void()> fn;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      if (state->queue.empty()) return;
      fn = std::move(state->queue.front());
      state->queue.pop_front();
      ++state->running;
    }
    fn();
    {
      std::lock_guard<std::mutex> lock(state->mu);
      --state->running;
      if (state->queue.empty() && state->running == 0) {
        state->cv.notify_all();
      }
    }
  }
}

void TaskGroup::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->queue.push_back(std::move(fn));
  }
  // The thunk holds the state alive even if it runs after Wait()
  // returned (a helper may have emptied the queue before the thunk ran).
  std::shared_ptr<State> state = state_;
  executor_->Submit([state] { RunOne(state); }, priority_);
}

void TaskGroup::Wait() {
  RunOne(state_);  // help: run everything still queued, inline
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] {
    return state_->queue.empty() && state_->running == 0;
  });
}

Throttle::Throttle(Executor* executor, int max_in_flight)
    : state_(std::make_shared<State>()),
      executor_(executor),
      max_in_flight_(max_in_flight < 1 ? 1 : max_in_flight) {}

void Throttle::Launch(const std::shared_ptr<State>& state,
                      Executor* executor, std::function<void()> fn,
                      uint64_t tag) {
  executor->Submit(
      [state, executor, fn = std::move(fn)]() mutable {
        fn();
        fn = nullptr;
        // Keep the slot if work is pending: chain straight into the
        // next task rather than releasing and re-acquiring.
        PendingTask next;
        {
          std::lock_guard<std::mutex> lock(state->mu);
          if (state->pending.empty()) {
            --state->in_flight;
            return;
          }
          next = std::move(state->pending.front());
          state->pending.pop_front();
        }
        Launch(state, executor, std::move(next.fn), next.tag);
      },
      Executor::Priority::kNormal, tag);
}

void Throttle::Submit(std::function<void()> fn) {
  const uint64_t tag = Executor::CurrentTag();
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->in_flight >= max_in_flight_) {
      state_->pending.push_back(PendingTask{std::move(fn), tag});
      return;
    }
    ++state_->in_flight;
  }
  Launch(state_, executor_, std::move(fn), tag);
}

void ReadySignal::Notify() {
  std::vector<std::function<void()>> callbacks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ready_) return;
    ready_ = true;
    callbacks = std::move(callbacks_);
    callbacks_.clear();
  }
  for (auto& cb : callbacks) cb();
}

bool ReadySignal::ready() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ready_;
}

void ReadySignal::OnReady(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!ready_) {
      callbacks_.push_back(std::move(fn));
      return;
    }
  }
  fn();
}

}  // namespace gesall
