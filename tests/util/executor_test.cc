#include "util/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gesall {
namespace {

using std::chrono::milliseconds;

TEST(ExecutorTest, RunsAllTasks) {
  Executor executor(4);
  std::atomic<int> counter{0};
  TaskGroup group(&executor);
  for (int i = 0; i < 200; ++i) {
    group.Submit([&counter] { counter.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ExecutorTest, AtLeastOneThread) {
  Executor executor(0);
  EXPECT_EQ(executor.num_threads(), 1);
  std::atomic<bool> ran{false};
  TaskGroup group(&executor);
  group.Submit([&ran] { ran = true; });
  group.Wait();
  EXPECT_TRUE(ran);
}

TEST(ExecutorTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    Executor executor(2);
    for (int i = 0; i < 50; ++i) {
      executor.Submit([&counter] { counter.fetch_add(1); });
    }
    // No Wait: the destructor itself must drain before joining.
  }
  EXPECT_EQ(counter.load(), 50);
}

// A worker that blocks must not strand the tasks queued behind it:
// the other workers have to steal them. This is the core guarantee the
// old FIFO ThreadPool lacked.
TEST(ExecutorTest, StealsWorkFromBlockedWorker) {
  Executor executor(4);
  std::mutex mu;
  std::condition_variable cv;
  int releases = 0;

  // One blocker per worker deque (fresh executor: round-robin starts at
  // worker 0), then 40 tasks spread behind them. Raw submits pin tasks
  // to deques, so the tasks behind still-blocked workers can only run
  // if a freed worker steals them.
  for (int i = 0; i < 4; ++i) {
    executor.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return releases > 0; });
      --releases;
    });
  }
  std::atomic<int> done{0};
  for (int i = 0; i < 40; ++i) {
    executor.Submit([&done] { done.fetch_add(1); });
  }
  // Unblock exactly one worker; it must finish all 40 tasks (10 of its
  // own, 30 stolen) while the other 3 workers stay blocked.
  {
    std::lock_guard<std::mutex> lock(mu);
    releases = 1;
  }
  cv.notify_all();
  while (done.load() < 40) std::this_thread::yield();
  EXPECT_EQ(done.load(), 40);
  EXPECT_GE(executor.stats().steals, 1);
  {
    std::lock_guard<std::mutex> lock(mu);
    releases = 3;
  }
  cv.notify_all();
}

TEST(ExecutorTest, WorkStealingStress) {
  Executor executor(4);
  std::atomic<int64_t> sum{0};
  TaskGroup group(&executor);
  // Uneven recursive fan-out from worker threads: children land on the
  // spawning worker's deque, forcing idle workers to steal.
  std::function<void(int)> spawn = [&](int depth) {
    sum.fetch_add(1, std::memory_order_relaxed);
    if (depth == 0) return;
    for (int i = 0; i < 3; ++i) {
      group.Submit([&spawn, depth] { spawn(depth - 1); });
    }
  };
  for (int i = 0; i < 8; ++i) {
    group.Submit([&spawn] { spawn(5); });
  }
  group.Wait();
  // 8 roots, each expanding sum_{d=0..5} 3^d = 364 nodes.
  EXPECT_EQ(sum.load(), 8 * 364);
  // The helping Wait may have drained the closures before the workers'
  // thunks ran, so fence with one raw task before reading stats.
  std::atomic<bool> fenced{false};
  executor.Submit([&fenced] { fenced = true; });
  while (!fenced.load()) std::this_thread::yield();
  EXPECT_GE(executor.stats().tasks_executed, 1);
}

TEST(ExecutorTest, HighPriorityRunsBeforeNormalOnSameWorker) {
  // Single worker: queue a blocker so submissions pile up, then check
  // that a high-priority task overtakes earlier normal-priority ones.
  Executor executor(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  executor.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  std::vector<int> order;
  std::mutex order_mu;
  TaskGroup group(&executor);
  auto record = [&](int id) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(id);
  };
  executor.Submit([&] { record(1); });
  executor.Submit([&] { record(2); });
  executor.Submit([&] { record(0); }, Executor::Priority::kHigh);
  std::atomic<bool> fence{false};  // FIFO after the normals
  executor.Submit([&] { fence = true; });
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  while (!fence.load()) std::this_thread::yield();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);  // high overtakes
  EXPECT_EQ(order[1], 1);  // normals stay FIFO
  EXPECT_EQ(order[2], 2);
}

TEST(TaskGroupTest, WaitReturnsOnlyAfterAllTasksComplete) {
  Executor executor(4);
  std::atomic<int> completed{0};
  TaskGroup group(&executor);
  for (int i = 0; i < 32; ++i) {
    group.Submit([&completed] {
      std::this_thread::sleep_for(milliseconds(1));
      completed.fetch_add(1, std::memory_order_release);
    });
  }
  group.Wait();
  EXPECT_EQ(completed.load(std::memory_order_acquire), 32);
}

// Wait() must make progress even when every worker is blocked — the
// waiter runs the closures itself. With a single blocked worker this
// can only pass via the helping path.
TEST(TaskGroupTest, HelpingWaitProgressesOnBlockedExecutor) {
  Executor executor(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  executor.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  TaskGroup group(&executor);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    group.Submit([&counter] { counter.fetch_add(1); });
  }
  group.Wait();  // would deadlock without helping
  EXPECT_EQ(counter.load(), 10);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
}

TEST(TaskGroupTest, NestedWaitFromWorkerTask) {
  Executor executor(2);
  std::atomic<int> inner_sum{0};
  std::atomic<bool> outer_done{false};
  TaskGroup outer(&executor);
  outer.Submit([&] {
    TaskGroup inner(&executor);
    for (int i = 0; i < 16; ++i) {
      inner.Submit([&inner_sum] { inner_sum.fetch_add(1); });
    }
    inner.Wait();
    outer_done = true;
  });
  outer.Wait();
  EXPECT_TRUE(outer_done.load());
  EXPECT_EQ(inner_sum.load(), 16);
}

TEST(TaskGroupTest, WaitIsReusableAcrossBatches) {
  Executor executor(2);
  TaskGroup group(&executor);
  std::atomic<int> counter{0};
  group.Submit([&counter] { counter.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(counter.load(), 1);
  group.Submit([&counter] { counter.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThrottleTest, CapsConcurrency) {
  Executor executor(8);
  Throttle throttle(&executor, 3);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_seen{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) {
    throttle.Submit([&] {
      int now = in_flight.fetch_add(1) + 1;
      int prev = max_seen.load();
      while (now > prev && !max_seen.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(milliseconds(1));
      in_flight.fetch_sub(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < 64) std::this_thread::yield();
  EXPECT_LE(max_seen.load(), 3);
  EXPECT_EQ(done.load(), 64);
}

TEST(ThrottleTest, SharedAcrossSubmittersStillCaps) {
  Executor executor(8);
  Throttle throttle(&executor, 2);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_seen{0};
  std::atomic<int> done{0};
  auto task = [&] {
    int now = in_flight.fetch_add(1) + 1;
    int prev = max_seen.load();
    while (now > prev && !max_seen.compare_exchange_weak(prev, now)) {
    }
    std::this_thread::sleep_for(milliseconds(1));
    in_flight.fetch_sub(1);
    done.fetch_add(1);
  };
  // Two "jobs" feed the same throttle, as overlapped rounds do.
  std::thread a([&] {
    for (int i = 0; i < 20; ++i) throttle.Submit(task);
  });
  std::thread b([&] {
    for (int i = 0; i < 20; ++i) throttle.Submit(task);
  });
  a.join();
  b.join();
  while (done.load() < 40) std::this_thread::yield();
  EXPECT_LE(max_seen.load(), 2);
}

TEST(ReadySignalTest, CallbackBeforeNotifyRunsOnNotify) {
  ReadySignal signal;
  int fired = 0;
  signal.OnReady([&fired] { ++fired; });
  EXPECT_FALSE(signal.ready());
  EXPECT_EQ(fired, 0);
  signal.Notify();
  EXPECT_TRUE(signal.ready());
  EXPECT_EQ(fired, 1);
}

TEST(ReadySignalTest, CallbackAfterNotifyRunsInline) {
  ReadySignal signal;
  signal.Notify();
  int fired = 0;
  signal.OnReady([&fired] { ++fired; });
  EXPECT_EQ(fired, 1);
}

TEST(ReadySignalTest, NotifyIsIdempotent) {
  ReadySignal signal;
  int fired = 0;
  signal.OnReady([&fired] { ++fired; });
  signal.Notify();
  signal.Notify();
  EXPECT_EQ(fired, 1);
}

TEST(ReadySignalTest, CallbacksRunInRegistrationOrder) {
  ReadySignal signal;
  std::vector<int> order;
  signal.OnReady([&order] { order.push_back(1); });
  signal.OnReady([&order] { order.push_back(2); });
  signal.Notify();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(ExecutorTest, SharedIsSingletonAndCountsInstances) {
  Executor* shared = Executor::Shared();
  ASSERT_NE(shared, nullptr);
  EXPECT_GE(shared->num_threads(), 4);
  int64_t before = Executor::instances_created();
  EXPECT_EQ(Executor::Shared(), shared);
  EXPECT_EQ(Executor::instances_created(), before);  // no new instance
  {
    Executor local(1);
    EXPECT_EQ(Executor::instances_created(), before + 1);
  }
}

// Shutdown-race regression (run under TSan in the sanitizer matrix):
// destruction while producers are still submitting and ReadySignal
// waiters are pending must drain every accepted task exactly once. The
// original bug: Submit bumped the atomic pending_ counter and notified
// idle_cv_ without passing through idle_mu_, so a drain waiter that had
// just evaluated its predicate could miss the wake-up and block forever.
TEST(ExecutorTest, ShutdownRacesWithSubmittersAndSignalWaiters) {
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> executed{0};
    std::atomic<int> accepted{0};
    auto signal = std::make_shared<ReadySignal>();
    {
      Executor executor(3);
      // Tasks queued behind a ReadySignal callback chain.
      for (int i = 0; i < 8; ++i) {
        signal->OnReady([&executed] { executed.fetch_add(1); });
      }
      // Concurrent producers racing the destructor's drain.
      std::vector<std::thread> producers;
      for (int p = 0; p < 3; ++p) {
        producers.emplace_back([&executor, &executed, &accepted, signal] {
          for (int i = 0; i < 40; ++i) {
            executor.Submit([&executed] { executed.fetch_add(1); });
            accepted.fetch_add(1);
          }
          signal->Notify();
        });
      }
      for (auto& t : producers) t.join();
      // Destructor runs here with a full queue and fired signal.
    }
    EXPECT_EQ(executed.load(), accepted.load() + 8) << "round " << round;
  }
}

TEST(ExecutorTest, TagScopeChargesWorkToTheTag) {
  Executor executor(2);
  constexpr uint64_t kTag = 42;
  EXPECT_EQ(Executor::CurrentTag(), 0u);
  std::atomic<int> done{0};
  {
    Executor::TagScope scope(kTag);
    EXPECT_EQ(Executor::CurrentTag(), kTag);
    for (int i = 0; i < 10; ++i) {
      executor.Submit([&done] {
        // Tag inheritance: work submitted from inside a tagged task is
        // charged to the same tag.
        EXPECT_EQ(Executor::CurrentTag(), 42u);
        std::this_thread::sleep_for(milliseconds(1));
        done.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(Executor::CurrentTag(), 0u);
  while (done.load() < 10) std::this_thread::yield();
  // Untagged work is not charged anywhere.
  std::atomic<bool> fenced{false};
  executor.Submit([&fenced] { fenced = true; });
  while (!fenced.load()) std::this_thread::yield();
  TagStats stats = executor.tag_stats(kTag);
  EXPECT_EQ(stats.tasks_executed, 10);
  EXPECT_GT(stats.busy_micros, 0);
  EXPECT_EQ(executor.tag_stats(7777).tasks_executed, 0);
}

TEST(ThrottleTest, QueuedTasksKeepTheSubmittersTag) {
  Executor executor(2);
  Throttle throttle(&executor, 1);
  std::atomic<int> done{0};
  // Saturate the single slot from tag 1; the queued tasks launch later
  // from whichever worker frees the slot, but must still be charged to
  // the tag captured at Throttle::Submit time.
  {
    Executor::TagScope scope(1);
    for (int i = 0; i < 6; ++i) {
      throttle.Submit([&done] {
        EXPECT_EQ(Executor::CurrentTag(), 1u);
        std::this_thread::sleep_for(milliseconds(1));
        done.fetch_add(1);
      });
    }
  }
  {
    Executor::TagScope scope(2);
    for (int i = 0; i < 6; ++i) {
      throttle.Submit([&done] {
        EXPECT_EQ(Executor::CurrentTag(), 2u);
        done.fetch_add(1);
      });
    }
  }
  while (done.load() < 12) std::this_thread::yield();
  // A worker charges a task to its tag only after the task returns, and
  // a throttled task launches its successor before returning, so the
  // last charges can trail `done`: wait for them too.
  const auto deadline = std::chrono::steady_clock::now() + milliseconds(5000);
  while (executor.tag_stats(1).tasks_executed +
                 executor.tag_stats(2).tasks_executed <
             12 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(executor.tag_stats(1).tasks_executed, 6);
  EXPECT_EQ(executor.tag_stats(2).tasks_executed, 6);
}

TEST(ExecutorTest, StatsCountQueueWaitAndExecution) {
  Executor executor(2);
  TaskGroup group(&executor);
  for (int i = 0; i < 20; ++i) {
    group.Submit([] { std::this_thread::sleep_for(milliseconds(1)); });
  }
  group.Wait();
  std::atomic<bool> fenced{false};
  executor.Submit([&fenced] { fenced = true; });
  while (!fenced.load()) std::this_thread::yield();
  ExecutorStats stats = executor.stats();
  EXPECT_GE(stats.tasks_executed, 1);
  EXPECT_GE(stats.queue_wait_micros, 0);
}

}  // namespace
}  // namespace gesall
