// Kill-and-restart recovery: the durable job log + DFS round manifests
// let a rebuilt service resume queued AND mid-flight jobs at round
// granularity, with final outputs byte-identical to a crash-free run.
// Also guards drain/restart queue-order and tenant-quota accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "genome/read_simulator.h"
#include "genome/reference_generator.h"
#include "service/service.h"

namespace gesall {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> VariantKeys(const std::vector<VariantRecord>& vs) {
  std::vector<std::string> keys;
  keys.reserve(vs.size());
  for (const auto& v : vs) {
    std::ostringstream os;
    os << v.Key() << "@" << v.qual;
    keys.push_back(os.str());
  }
  return keys;
}

class ServiceRecoveryTest : public testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("gesall_service_recovery_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name())))
                .string();
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  DfsOptions DurableDfsOptions() const {
    DfsOptions dopt;
    dopt.block_size = 64 * 1024;
    dopt.replication = 2;
    dopt.num_data_nodes = 4;
    dopt.durability.root_dir = root_ + "/dfs";
    return dopt;
  }

  ServiceConfig DurableServiceConfig() const {
    ServiceConfig config;
    config.max_running_jobs = 1;  // deterministic job ordering
    config.durability.root_dir = root_;
    return config;
  }

  static JobSpec MakeJob(const std::string& tenant) {
    JobSpec spec;
    spec.tenant = tenant;
    spec.mate1 = sample_->mate1;
    spec.mate2 = sample_->mate2;
    spec.pipeline.alignment_partitions = 2;
    spec.pipeline.max_parallel_tasks = 2;
    return spec;
  }

  static void SetUpTestSuite() {
    ReferenceGeneratorOptions ro;
    ro.num_chromosomes = 1;
    ro.chromosome_length = 20'000;
    ref_ = new ReferenceGenome(GenerateReference(ro));
    donor_ = new DonorGenome(PlantVariants(*ref_, VariantPlanterOptions{}));
    ReadSimulatorOptions so;
    so.coverage = 5.0;
    sample_ = new SimulatedSample(SimulateReads(*donor_, so));
    index_ = new GenomeIndex(*ref_);

    // Crash-free baseline with the same pipeline shape the jobs use.
    Dfs dfs(DfsOptions{});
    PipelineConfig config;
    config.alignment_partitions = 2;
    config.max_parallel_tasks = 2;
    GesallPipeline baseline(*ref_, *index_, &dfs, config);
    ASSERT_TRUE(baseline.LoadSample(sample_->mate1, sample_->mate2).ok());
    auto variants = baseline.RunAll();
    ASSERT_TRUE(variants.ok()) << variants.status().ToString();
    baseline_variants_ =
        new std::vector<VariantRecord>(variants.MoveValueUnsafe());
  }

  static void TearDownTestSuite() {
    delete baseline_variants_;
    delete index_;
    delete sample_;
    delete donor_;
    delete ref_;
  }

  std::string root_;
  static ReferenceGenome* ref_;
  static DonorGenome* donor_;
  static SimulatedSample* sample_;
  static GenomeIndex* index_;
  static std::vector<VariantRecord>* baseline_variants_;
};

ReferenceGenome* ServiceRecoveryTest::ref_ = nullptr;
DonorGenome* ServiceRecoveryTest::donor_ = nullptr;
SimulatedSample* ServiceRecoveryTest::sample_ = nullptr;
GenomeIndex* ServiceRecoveryTest::index_ = nullptr;
std::vector<VariantRecord>* ServiceRecoveryTest::baseline_variants_ = nullptr;

// The acceptance scenario: kill the service after the mid-flight job
// sealed rounds 1-2 (crash lands before round 3 starts), rebuild both
// DFS and service from their logs, and require (a) every job finishes,
// (b) outputs byte-identical to the crash-free baseline, (c) completed
// rounds were skipped, not recomputed.
TEST_F(ServiceRecoveryTest, KillRestartResumesAtRoundGranularity) {
  Dfs dfs(DurableDfsOptions());
  JobId job1 = 0, job2 = 0;

  std::mutex hook_mu;
  std::condition_variable hook_cv;
  bool reached_round2 = false;
  bool crash_landed = false;
  std::atomic<JobId> crash_target{0};

  ServiceConfig config = DurableServiceConfig();
  config.round_complete_hook = [&](JobId id, int round_index,
                                   const std::string&) {
    if (id != crash_target.load() || round_index != kRoundCleaning) return;
    // Hold the pipeline between rounds 2 and 3 until the crash lands,
    // so the kill deterministically catches this job mid-flight.
    std::unique_lock<std::mutex> lock(hook_mu);
    reached_round2 = true;
    hook_cv.notify_all();
    hook_cv.wait(lock, [&] { return crash_landed; });
  };

  {
    GesallService service(*ref_, *index_, &dfs, config);
    ASSERT_TRUE(service.recovery_status().ok());
    auto id1 = service.Submit(MakeJob("alpha"));
    ASSERT_TRUE(id1.ok()) << id1.status().ToString();
    job1 = id1.ValueOrDie();
    crash_target.store(job1);
    auto id2 = service.Submit(MakeJob("beta"));
    ASSERT_TRUE(id2.ok()) << id2.status().ToString();
    job2 = id2.ValueOrDie();

    {
      std::unique_lock<std::mutex> lock(hook_mu);
      hook_cv.wait(lock, [&] { return reached_round2; });
    }
    // SimulateCrash flips the running job's cancel token before waiting
    // for runners, so releasing the hook after a short grace period
    // always lets the pipeline observe the cancellation at round 3's
    // start.
    std::thread crasher([&] { ASSERT_TRUE(service.SimulateCrash().ok()); });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    {
      std::lock_guard<std::mutex> lock(hook_mu);
      crash_landed = true;
    }
    hook_cv.notify_all();
    crasher.join();

    // Waiters of the dead instance observe the synthetic failures; the
    // log records neither job as finished.
    auto out1 = service.Wait(job1);
    ASSERT_TRUE(out1.ok());
    EXPECT_TRUE(out1.ValueOrDie().status.IsCancelled())
        << out1.ValueOrDie().status.ToString();
    auto out2 = service.Wait(job2);
    ASSERT_TRUE(out2.ok());
    EXPECT_TRUE(out2.ValueOrDie().status.IsUnavailable())
        << out2.ValueOrDie().status.ToString();
    EXPECT_GT(service.stats().journal_records_appended, 0);
  }

  // Full restart: drop the DFS's memory too, then rebuild the service
  // against the recovered namespace (sealed manifests included).
  ASSERT_TRUE(dfs.SimulateCrash().ok());
  ServiceConfig fresh = DurableServiceConfig();
  GesallService service(*ref_, *index_, &dfs, fresh);
  ASSERT_TRUE(service.recovery_status().ok())
      << service.recovery_status().ToString();
  const ServiceRecoveryStats rec = service.recovery_stats();
  EXPECT_TRUE(rec.recovered);
  EXPECT_EQ(rec.jobs_recovered, 2);

  auto out1 = service.Wait(job1);
  ASSERT_TRUE(out1.ok()) << out1.status().ToString();
  const JobOutput& resumed = out1.ValueOrDie();
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_EQ(resumed.tenant, "alpha");
  ASSERT_GT(baseline_variants_->size(), 5u);
  EXPECT_EQ(VariantKeys(resumed.variants), VariantKeys(*baseline_variants_));
  // Rounds 1 and 2 were sealed before the crash: skipped, and the
  // alignment kernel never ran again.
  EXPECT_GE(resumed.counters.Get("round_skipped_on_resume"), 2);
  EXPECT_EQ(resumed.counters.Get("align_kernel_calls"), 0);

  auto out2 = service.Wait(job2);
  ASSERT_TRUE(out2.ok()) << out2.status().ToString();
  const JobOutput& requeued = out2.ValueOrDie();
  ASSERT_TRUE(requeued.status.ok()) << requeued.status.ToString();
  EXPECT_EQ(requeued.tenant, "beta");
  EXPECT_EQ(VariantKeys(requeued.variants), VariantKeys(*baseline_variants_));
  // The queued job had no sealed rounds: it runs from the top.
  EXPECT_EQ(requeued.counters.Get("round_skipped_on_resume"), 0);
  EXPECT_GT(requeued.counters.Get("align_kernel_calls"), 0);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 2);
}

// A streamed job's fused rounds 1+2 seal as round 2, and the job log
// keeps the streaming flag: the recovered job resumes streamed past that
// round instead of re-running alignment unstreamed.
TEST_F(ServiceRecoveryTest, KillRestartResumesStreamedJob) {
  Dfs dfs(DurableDfsOptions());
  JobId job = 0;

  std::mutex hook_mu;
  std::condition_variable hook_cv;
  bool reached_round2 = false;
  bool crash_landed = false;

  ServiceConfig config = DurableServiceConfig();
  config.round_complete_hook = [&](JobId, int round_index,
                                   const std::string&) {
    if (round_index != kRoundCleaning) return;
    std::unique_lock<std::mutex> lock(hook_mu);
    reached_round2 = true;
    hook_cv.notify_all();
    hook_cv.wait(lock, [&] { return crash_landed; });
  };
  JobSpec spec = MakeJob("gamma");
  spec.pipeline.pipelined = true;
  spec.pipeline.streaming = true;

  {
    GesallService service(*ref_, *index_, &dfs, config);
    ASSERT_TRUE(service.recovery_status().ok());
    auto id = service.Submit(spec);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    job = id.ValueOrDie();
    {
      std::unique_lock<std::mutex> lock(hook_mu);
      hook_cv.wait(lock, [&] { return reached_round2; });
    }
    std::thread crasher([&] { ASSERT_TRUE(service.SimulateCrash().ok()); });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    {
      std::lock_guard<std::mutex> lock(hook_mu);
      crash_landed = true;
    }
    hook_cv.notify_all();
    crasher.join();
    auto out = service.Wait(job);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out.ValueOrDie().status.IsCancelled())
        << out.ValueOrDie().status.ToString();
  }

  ASSERT_TRUE(dfs.SimulateCrash().ok());
  GesallService service(*ref_, *index_, &dfs, DurableServiceConfig());
  ASSERT_TRUE(service.recovery_status().ok())
      << service.recovery_status().ToString();
  EXPECT_EQ(service.recovery_stats().jobs_recovered, 1);

  auto out = service.Wait(job);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const JobOutput& resumed = out.ValueOrDie();
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_EQ(VariantKeys(resumed.variants), VariantKeys(*baseline_variants_));
  EXPECT_GE(resumed.counters.Get("round_skipped_on_resume"), 1);
  EXPECT_EQ(resumed.counters.Get("align_kernel_calls"), 0);
  // Both legs streamed: the aligned stage never reached the DFS.
  EXPECT_TRUE(
      dfs.List("/jobs/gamma/job-" + std::to_string(job) + "/aligned/")
          .empty());
}

// A graceful destructor keeps queued jobs in the log (only their
// waiters see the shutdown cancellation); the next incarnation requeues
// exactly those, in submit order, with quota accounting rebuilt.
TEST_F(ServiceRecoveryTest, GracefulShutdownRequeuesQueuedJobs) {
  Dfs dfs(DurableDfsOptions());
  JobId running = 0, queued1 = 0, queued2 = 0;
  {
    GesallService service(*ref_, *index_, &dfs, DurableServiceConfig());
    auto id0 = service.Submit(MakeJob("alpha"));
    ASSERT_TRUE(id0.ok());
    running = id0.ValueOrDie();
    auto id1 = service.Submit(MakeJob("alpha"));
    ASSERT_TRUE(id1.ok());
    queued1 = id1.ValueOrDie();
    auto id2 = service.Submit(MakeJob("beta"));
    ASSERT_TRUE(id2.ok());
    queued2 = id2.ValueOrDie();
    // Let the first job finish cleanly (journaled as finished); the
    // destructor then cancels the two still queued without journaling.
    // Drain first: once the runner delivers the first job's output it
    // would otherwise race this scope's exit to pick up a queued job
    // (weighted-fair prefers the idle tenant) and run it to completion.
    service.Drain();
    auto out = service.Wait(running);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out.ValueOrDie().status.ok())
        << out.ValueOrDie().status.ToString();
  }

  ASSERT_TRUE(dfs.SimulateCrash().ok());
  GesallService service(*ref_, *index_, &dfs, DurableServiceConfig());
  ASSERT_TRUE(service.recovery_status().ok())
      << service.recovery_status().ToString();
  EXPECT_EQ(service.recovery_stats().jobs_recovered, 2);

  // Completion order under one runner == recovered queue order ==
  // original submit order, across tenants.
  auto o1 = service.Wait(queued1);
  auto o2 = service.Wait(queued2);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  ASSERT_TRUE(o1.ValueOrDie().status.ok())
      << o1.ValueOrDie().status.ToString();
  ASSERT_TRUE(o2.ValueOrDie().status.ok())
      << o2.ValueOrDie().status.ToString();
  EXPECT_LT(o1.ValueOrDie().queue_seconds, o2.ValueOrDie().queue_seconds);
  EXPECT_EQ(VariantKeys(o1.ValueOrDie().variants),
            VariantKeys(*baseline_variants_));
  EXPECT_EQ(VariantKeys(o2.ValueOrDie().variants),
            VariantKeys(*baseline_variants_));
  // The finished job was not resurrected.
  EXPECT_TRUE(service.Wait(running).status().IsNotFound());
}

// Drain/Restart regression: queued jobs keep their submit order and the
// per-tenant quota ledger stays exact across the drain cycle.
TEST_F(ServiceRecoveryTest, DrainRestartPreservesOrderAndQuotas) {
  Dfs dfs(DfsOptions{});  // in-memory: this guards the graceful path
  ServiceConfig config;
  config.max_running_jobs = 1;
  config.tenants["alpha"].max_queued_jobs = 2;

  std::mutex order_mu;
  std::vector<JobId> start_order;
  config.round_complete_hook = [&](JobId id, int round_index,
                                   const std::string&) {
    if (round_index != kRoundAlignment) return;
    std::lock_guard<std::mutex> lock(order_mu);
    start_order.push_back(id);
  };

  GesallService service(*ref_, *index_, &dfs, config);
  auto blocker = service.Submit(MakeJob("beta"));
  ASSERT_TRUE(blocker.ok());
  // The single runner must hold the blocker before the alpha jobs
  // arrive, so those deterministically queue.
  while (service.running_jobs() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto a1 = service.Submit(MakeJob("alpha"));
  ASSERT_TRUE(a1.ok());
  auto a2 = service.Submit(MakeJob("alpha"));
  ASSERT_TRUE(a2.ok());
  // Quota exact before the drain: a third queued alpha job is shed.
  auto a3 = service.Submit(MakeJob("alpha"));
  ASSERT_TRUE(a3.status().IsUnavailable()) << a3.status().ToString();
  EXPECT_EQ(service.stats().shed_tenant_quota, 1);

  service.Drain();
  EXPECT_EQ(service.state(), GesallService::State::kDrained);
  // The blocker ran to completion; both alpha jobs survived the drain.
  EXPECT_EQ(service.queue_depth(), 2);
  service.Restart();
  EXPECT_EQ(service.state(), GesallService::State::kAccepting);

  // Quota accounting survived the cycle: alpha is still at its cap
  // until a queued job starts running, and a beta submission is not
  // affected by alpha's ledger.
  auto b2 = service.Submit(MakeJob("beta"));
  ASSERT_TRUE(b2.ok()) << b2.status().ToString();

  for (JobId id : {blocker.ValueOrDie(), a1.ValueOrDie(), a2.ValueOrDie(),
                   b2.ValueOrDie()}) {
    auto out = service.Wait(id);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out.ValueOrDie().status.ok())
        << out.ValueOrDie().status.ToString();
  }
  // Within alpha, the drained queue replayed in submit order.
  std::lock_guard<std::mutex> lock(order_mu);
  auto pos = [&](JobId id) {
    return std::find(start_order.begin(), start_order.end(), id) -
           start_order.begin();
  };
  EXPECT_LT(pos(a1.ValueOrDie()), pos(a2.ValueOrDie()));
}

// Durability misconfiguration and unwritable roots fail loudly at
// Submit instead of silently running without a log.
TEST_F(ServiceRecoveryTest, BrokenDurabilityFailsSubmitsLoudly) {
  Dfs dfs(DfsOptions{});
  {
    ServiceConfig config;
    config.durability.root_dir = root_;
    config.durability.fsync_every_records = 0;  // invalid
    GesallService service(*ref_, *index_, &dfs, config);
    EXPECT_TRUE(service.recovery_status().IsInvalidArgument());
    auto id = service.Submit(MakeJob("alpha"));
    EXPECT_TRUE(id.status().IsInvalidArgument());
  }
  {
    ServiceConfig config;
    config.durability.root_dir = "/proc/gesall-no-such-writable-root";
    GesallService service(*ref_, *index_, &dfs, config);
    EXPECT_FALSE(service.recovery_status().ok());
    auto id = service.Submit(MakeJob("alpha"));
    EXPECT_FALSE(id.ok());
    EXPECT_EQ(service.queue_depth(), 0);
  }
}

}  // namespace
}  // namespace gesall
