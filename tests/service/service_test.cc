// GesallService functional tests: admission control and shedding,
// per-tenant quotas, weighted-fair + deadline scheduling, cancellation,
// timeouts, drain/restart, and the online planner.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "genome/read_simulator.h"
#include "genome/reference_generator.h"
#include "service/service.h"

namespace gesall {
namespace {

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

class ServiceTest : public testing::Test {
 protected:
  static DfsOptions MakeDfsOptions() {
    DfsOptions dopt;
    dopt.block_size = 64 * 1024;
    dopt.replication = 2;
    dopt.num_data_nodes = 4;
    return dopt;
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
    ro.chromosome_length = 25'000;
    ref_ = new ReferenceGenome(GenerateReference(ro));
    donor_ = new DonorGenome(PlantVariants(*ref_, VariantPlanterOptions{}));
    ReadSimulatorOptions so;
    so.coverage = 6.0;
    sample_ = new SimulatedSample(SimulateReads(*donor_, so));
    index_ = new GenomeIndex(*ref_);

    // Solo baseline with the same pipeline shape the service jobs use.
    Dfs dfs(MakeDfsOptions());
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

  static ReferenceGenome* ref_;
  static DonorGenome* donor_;
  static SimulatedSample* sample_;
  static GenomeIndex* index_;
  static std::vector<VariantRecord>* baseline_variants_;
};

ReferenceGenome* ServiceTest::ref_ = nullptr;
DonorGenome* ServiceTest::donor_ = nullptr;
SimulatedSample* ServiceTest::sample_ = nullptr;
GenomeIndex* ServiceTest::index_ = nullptr;
std::vector<VariantRecord>* ServiceTest::baseline_variants_ = nullptr;

TEST_F(ServiceTest, RunsOneJobEndToEnd) {
  Dfs dfs(MakeDfsOptions());
  GesallService service(*ref_, *index_, &dfs, ServiceConfig{});
  auto id = service.Submit(MakeJob("alpha"));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto out = service.Wait(id.ValueOrDie());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const JobOutput& job = out.ValueOrDie();
  EXPECT_TRUE(job.status.ok()) << job.status.ToString();
  EXPECT_EQ(job.tenant, "alpha");
  ASSERT_GT(baseline_variants_->size(), 10u);
  // Byte-identical to a solo pipeline on a private DFS.
  EXPECT_EQ(VariantKeys(job.variants), VariantKeys(*baseline_variants_));
  EXPECT_GT(job.busy_micros, 0);
  EXPECT_GT(job.run_seconds, 0);
  EXPECT_FALSE(job.recovered);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.completed_by_tenant.at("alpha"), 1);
  EXPECT_EQ(stats.shed, 0);
}

TEST_F(ServiceTest, ConcurrentTenantsAllByteIdentical) {
  Dfs dfs(MakeDfsOptions());
  ServiceConfig config;
  config.max_running_jobs = 3;
  GesallService service(*ref_, *index_, &dfs, config);
  std::vector<JobId> ids;
  for (const char* tenant : {"alpha", "beta", "gamma"}) {
    auto id = service.Submit(MakeJob(tenant));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.ValueOrDie());
  }
  for (JobId id : ids) {
    auto out = service.Wait(id);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out.ValueOrDie().status.ok())
        << out.ValueOrDie().status.ToString();
    EXPECT_EQ(VariantKeys(out.ValueOrDie().variants),
              VariantKeys(*baseline_variants_));
  }
  EXPECT_EQ(service.stats().completed, 3);
}

TEST_F(ServiceTest, ShedsWhenQueueIsFull) {
  Dfs dfs(MakeDfsOptions());
  ServiceConfig config;
  config.max_running_jobs = 1;
  config.max_queue_depth = 2;
  config.retry_after_ms = 77;
  GesallService service(*ref_, *index_, &dfs, config);

  // The queue holds jobs until a runner picks them; saturate it faster
  // than one runner can drain.
  std::vector<JobId> admitted;
  int shed = 0;
  for (int i = 0; i < 12; ++i) {
    auto id = service.Submit(MakeJob("flood"));
    if (id.ok()) {
      admitted.push_back(id.ValueOrDie());
    } else {
      EXPECT_TRUE(id.status().IsUnavailable()) << id.status().ToString();
      EXPECT_NE(id.status().ToString().find("retry after 77ms"),
                std::string::npos)
          << id.status().ToString();
      shed++;
    }
  }
  EXPECT_GT(shed, 0);
  for (JobId id : admitted) {
    auto out = service.Wait(id);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out.ValueOrDie().status.ok());
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed, shed);
  EXPECT_GT(stats.shed_queue_depth + stats.shed_tenant_quota, 0);
  EXPECT_EQ(stats.submitted, stats.admitted + stats.shed);
}

TEST_F(ServiceTest, ShedsOnTenantQuotaWhileOthersAdmit) {
  Dfs dfs(MakeDfsOptions());
  ServiceConfig config;
  config.max_running_jobs = 1;
  config.max_queue_depth = 100;
  config.default_quota.max_queued_jobs = 1;
  GesallService service(*ref_, *index_, &dfs, config);

  std::vector<JobId> ids;
  auto a1 = service.Submit(MakeJob("greedy"));
  ASSERT_TRUE(a1.ok());
  ids.push_back(a1.ValueOrDie());
  // Runner may have already started a1; submit until the tenant holds
  // one queued job, then the next submission must shed.
  auto a2 = service.Submit(MakeJob("greedy"));
  if (a2.ok()) ids.push_back(a2.ValueOrDie());
  auto a3 = service.Submit(MakeJob("greedy"));
  if (a3.ok()) ids.push_back(a3.ValueOrDie());
  EXPECT_FALSE(a2.ok() && a3.ok());
  Status shed_status = !a2.ok() ? a2.status() : a3.status();
  EXPECT_TRUE(shed_status.IsUnavailable()) << shed_status.ToString();
  EXPECT_NE(shed_status.ToString().find("quota"), std::string::npos);
  // A different tenant still gets in.
  auto b = service.Submit(MakeJob("modest"));
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ids.push_back(b.ValueOrDie());
  for (JobId id : ids) {
    auto out = service.Wait(id);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out.ValueOrDie().status.ok());
  }
  EXPECT_GT(service.stats().shed_tenant_quota, 0);
}

TEST_F(ServiceTest, ShedsOnByteBudget) {
  Dfs dfs(MakeDfsOptions());
  ServiceConfig config;
  config.max_running_jobs = 1;
  // Budget fits one copy of the sample but not two.
  int64_t one_job = 0;
  for (const auto& r : sample_->mate1) {
    one_job += static_cast<int64_t>(2 * (r.name.size() + r.sequence.size() +
                                         r.quality.size() + 3));
  }
  config.max_in_flight_bytes = one_job + one_job / 2;
  GesallService service(*ref_, *index_, &dfs, config);
  auto first = service.Submit(MakeJob("bytes"));
  ASSERT_TRUE(first.ok());
  auto second = service.Submit(MakeJob("bytes"));
  // Either shed on bytes immediately, or (if the first already ran to
  // completion) admitted; force the deterministic case via a third.
  if (second.ok()) {
    auto third = service.Submit(MakeJob("bytes"));
    EXPECT_FALSE(third.ok());
  } else {
    EXPECT_TRUE(second.status().IsUnavailable());
    EXPECT_NE(second.status().ToString().find("byte budget"),
              std::string::npos);
  }
  auto out = service.Wait(first.ValueOrDie());
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.ValueOrDie().status.ok());
  EXPECT_GT(service.stats().shed_bytes, 0);
}

TEST_F(ServiceTest, EarliestDeadlineRunsFirstWithinTenant) {
  Dfs dfs(MakeDfsOptions());
  ServiceConfig config;
  config.max_running_jobs = 1;
  config.max_queue_depth = 10;
  config.default_quota.max_queued_jobs = 10;
  GesallService service(*ref_, *index_, &dfs, config);

  // Occupy the single runner, then queue in submission order: a late
  // deadline, a tight deadline, and a high-priority no-deadline job.
  auto blocker = service.Submit(MakeJob("edf"));
  ASSERT_TRUE(blocker.ok());
  JobSpec late = MakeJob("edf");
  late.deadline_seconds = 10'000;
  JobSpec soon = MakeJob("edf");
  soon.deadline_seconds = 500;
  JobSpec urgent = MakeJob("edf");
  urgent.priority = 9;
  auto late_id = service.Submit(std::move(late));
  auto soon_id = service.Submit(std::move(soon));
  auto urgent_id = service.Submit(std::move(urgent));
  ASSERT_TRUE(late_id.ok() && soon_id.ok() && urgent_id.ok());

  auto late_out = service.Wait(late_id.ValueOrDie());
  auto soon_out = service.Wait(soon_id.ValueOrDie());
  auto urgent_out = service.Wait(urgent_id.ValueOrDie());
  ASSERT_TRUE(late_out.ok() && soon_out.ok() && urgent_out.ok());
  // Deadlines order before priority, priority before FIFO: submission
  // order was late, soon, urgent; execution order must be soon, late,
  // urgent... no — deadline-carrying jobs (soon, then late) precede the
  // deadline-less urgent job. Queue waits reflect that order.
  EXPECT_LT(soon_out.ValueOrDie().queue_seconds,
            late_out.ValueOrDie().queue_seconds);
  EXPECT_LT(late_out.ValueOrDie().queue_seconds,
            urgent_out.ValueOrDie().queue_seconds);
}

TEST_F(ServiceTest, WeightedFairnessInterleavesTenants) {
  Dfs dfs(MakeDfsOptions());
  ServiceConfig config;
  config.max_running_jobs = 1;
  config.max_queue_depth = 10;
  config.default_quota.max_queued_jobs = 10;
  GesallService service(*ref_, *index_, &dfs, config);

  // Tenant A floods three jobs; tenant B submits one afterwards. Once
  // A's first job has charged usage to A, B's untouched account must
  // win the next slot ahead of A's remaining queue.
  auto a1 = service.Submit(MakeJob("a"));
  ASSERT_TRUE(a1.ok());
  auto a2 = service.Submit(MakeJob("a"));
  ASSERT_TRUE(a2.ok());
  auto a3 = service.Submit(MakeJob("a"));
  ASSERT_TRUE(a3.ok());
  auto b1 = service.Submit(MakeJob("b"));
  ASSERT_TRUE(b1.ok());

  auto a2_out = service.Wait(a2.ValueOrDie());
  auto b1_out = service.Wait(b1.ValueOrDie());
  ASSERT_TRUE(a2_out.ok() && b1_out.ok());
  EXPECT_LT(b1_out.ValueOrDie().queue_seconds,
            a2_out.ValueOrDie().queue_seconds);
  // Drain the rest so destruction is quiet.
  EXPECT_TRUE(service.Wait(a1.ValueOrDie()).ok());
  EXPECT_TRUE(service.Wait(a3.ValueOrDie()).ok());
}

TEST_F(ServiceTest, CancelQueuedJobReturnsCauseImmediately) {
  Dfs dfs(MakeDfsOptions());
  ServiceConfig config;
  config.max_running_jobs = 1;
  GesallService service(*ref_, *index_, &dfs, config);
  auto blocker = service.Submit(MakeJob("c"));
  ASSERT_TRUE(blocker.ok());
  auto queued = service.Submit(MakeJob("c"));
  ASSERT_TRUE(queued.ok());
  ASSERT_TRUE(service.Cancel(queued.ValueOrDie(), "operator says no").ok());
  auto out = service.Wait(queued.ValueOrDie());
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.ValueOrDie().status.IsCancelled());
  EXPECT_NE(out.ValueOrDie().status.ToString().find("operator says no"),
            std::string::npos);
  EXPECT_EQ(service.stats().cancelled, 1);
  EXPECT_TRUE(service.Wait(blocker.ValueOrDie()).ok());
  EXPECT_TRUE(service.Cancel(9999999, "x").IsNotFound());
}

TEST_F(ServiceTest, CancelRunningJobUnwindsAndCleansItsNamespace) {
  Dfs dfs(MakeDfsOptions());
  ServiceConfig config;
  config.max_running_jobs = 1;
  GesallService service(*ref_, *index_, &dfs, config);
  auto id = service.Submit(MakeJob("c"));
  ASSERT_TRUE(id.ok());
  // Wait for the job to actually start, then cancel mid-run.
  while (service.running_jobs() == 0 && service.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(service.Cancel(id.ValueOrDie(), "mid-run abort").ok());
  auto out = service.Wait(id.ValueOrDie());
  ASSERT_TRUE(out.ok());
  const JobOutput& job = out.ValueOrDie();
  if (job.status.IsCancelled()) {
    EXPECT_NE(job.status.ToString().find("mid-run abort"), std::string::npos);
    // The cancelled pipeline removed its partial stage outputs; only the
    // loaded input partitions may remain under the job's namespace.
    for (const std::string& path : dfs.List("/jobs/c/")) {
      EXPECT_NE(path.find("/input/"), std::string::npos) << path;
    }
  } else {
    // The job may have completed before the token flipped; then the
    // output must be fully intact.
    EXPECT_TRUE(job.status.ok()) << job.status.ToString();
    EXPECT_EQ(VariantKeys(job.variants), VariantKeys(*baseline_variants_));
  }
}

TEST_F(ServiceTest, TimeoutCancelsARunningJob) {
  Dfs dfs(MakeDfsOptions());
  ServiceConfig config;
  config.max_running_jobs = 1;
  // The budget starts at Submit, so it must sit well above runner
  // pickup or the job would time out while still queued.
  config.default_timeout_seconds = 1.0;
  config.watchdog_interval_ms = 1;
  // Hold the running job after round 1 until the watchdog has fired, so
  // the budget always expires mid-run, however fast the pipeline is.
  GesallService* service_ptr = nullptr;
  config.round_complete_hook = [&service_ptr](JobId, int round_index,
                                              const std::string&) {
    if (round_index != kRoundAlignment) return;
    for (int ms = 0; ms < 60'000 && service_ptr->stats().timed_out == 0;
         ++ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  GesallService service(*ref_, *index_, &dfs, config);
  service_ptr = &service;
  auto id = service.Submit(MakeJob("t"));
  ASSERT_TRUE(id.ok());
  auto out = service.Wait(id.ValueOrDie());
  ASSERT_TRUE(out.ok());
  const std::string status = out.ValueOrDie().status.ToString();
  EXPECT_TRUE(out.ValueOrDie().status.IsCancelled()) << status;
  EXPECT_NE(status.find("timeout"), std::string::npos) << status;
  EXPECT_EQ(status.find("in queue"), std::string::npos) << status;
  EXPECT_GE(service.stats().timed_out, 1);
}

TEST_F(ServiceTest, DrainStopsAdmissionKeepsQueueAndRestartResumes) {
  Dfs dfs(MakeDfsOptions());
  ServiceConfig config;
  config.max_running_jobs = 1;
  GesallService service(*ref_, *index_, &dfs, config);
  auto running = service.Submit(MakeJob("d"));
  ASSERT_TRUE(running.ok());
  auto queued = service.Submit(MakeJob("d"));
  ASSERT_TRUE(queued.ok());
  // Let the runner actually pick up the first job: drain only waits for
  // RUNNING jobs, so draining before the pick would (correctly) leave
  // both jobs checkpointed in the queue.
  while (service.running_jobs() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  service.Drain();
  EXPECT_EQ(service.state(), GesallService::State::kDrained);
  EXPECT_EQ(service.running_jobs(), 0);
  // The running job finished; the queued one is checkpointed, not lost.
  auto ran = service.Wait(running.ValueOrDie());
  ASSERT_TRUE(ran.ok());
  EXPECT_TRUE(ran.ValueOrDie().status.ok());
  EXPECT_EQ(service.queue_depth(), 1);
  // Admission is off while drained.
  auto rejected = service.Submit(MakeJob("d"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsUnavailable());
  EXPECT_NE(rejected.status().ToString().find("draining"), std::string::npos);
  EXPECT_GT(service.stats().shed_draining, 0);

  service.Restart();
  EXPECT_EQ(service.state(), GesallService::State::kAccepting);
  auto resumed = service.Wait(queued.ValueOrDie());
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(resumed.ValueOrDie().status.ok())
      << resumed.ValueOrDie().status.ToString();
  EXPECT_EQ(VariantKeys(resumed.ValueOrDie().variants),
            VariantKeys(*baseline_variants_));
  EXPECT_EQ(service.stats().drains, 1);
  EXPECT_EQ(service.stats().restarts, 1);
}

TEST_F(ServiceTest, DestructionFailsQueuedJobsSoWaitersUnblock) {
  Dfs dfs(MakeDfsOptions());
  auto service = std::make_unique<GesallService>(*ref_, *index_, &dfs,
                                                 ServiceConfig{});
  // Exercise the drain -> restart -> drain path, then a clean shutdown.
  service->Drain();
  service->Restart();
  service->Drain();
  EXPECT_EQ(service->state(), GesallService::State::kDrained);
  service.reset();  // no queued jobs: clean shutdown path
  // And with a queued job the destructor must fail it rather than leave
  // waiters hung. One runner, so the second job is guaranteed to still
  // be queued (not running to completion) when the destructor fires.
  ServiceConfig one_runner;
  one_runner.max_running_jobs = 1;
  auto service2 = std::make_unique<GesallService>(*ref_, *index_, &dfs,
                                                  one_runner);
  auto blocker = service2->Submit(MakeJob("z"));
  ASSERT_TRUE(blocker.ok());
  auto queued = service2->Submit(MakeJob("z"));
  ASSERT_TRUE(queued.ok());
  // Raw pointer: the waiter must not touch the unique_ptr the main
  // thread resets. The destructor drains waiters before tearing down.
  GesallService* svc = service2.get();
  const JobId queued_id = queued.ValueOrDie();
  std::thread waiter([svc, queued_id] {
    auto out = svc->Wait(queued_id);
    ASSERT_TRUE(out.ok());
    EXPECT_FALSE(out.ValueOrDie().status.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service2.reset();
  waiter.join();
}

TEST_F(ServiceTest, DeadlineJobGetsAnOptimizerPlan) {
  Dfs dfs(MakeDfsOptions());
  GesallService service(*ref_, *index_, &dfs, ServiceConfig{});
  JobSpec spec = MakeJob("p");
  spec.deadline_seconds = 3600;
  auto id = service.Submit(std::move(spec));
  ASSERT_TRUE(id.ok());
  auto out = service.Wait(id.ValueOrDie());
  ASSERT_TRUE(out.ok());
  const JobOutput& job = out.ValueOrDie();
  EXPECT_TRUE(job.status.ok()) << job.status.ToString();
  EXPECT_TRUE(job.planned);
  EXPECT_GT(job.plan.wall_seconds, 0);
  EXPECT_GT(job.plan.slot_seconds, 0);
  // The plan reconfigured, not broke, the pipeline: output unchanged.
  EXPECT_EQ(VariantKeys(job.variants).size(), baseline_variants_->size());
}

TEST_F(ServiceTest, HeartbeatDriverTicksWhileServiceIdles) {
  Dfs dfs(MakeDfsOptions());
  ServiceConfig config;
  config.heartbeat_interval_ms = 1;
  GesallService service(*ref_, *index_, &dfs, config);
  // No job submitted at all: the DFS clock must still advance.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_GT(service.heartbeat()->ticks(), 0);
  EXPECT_TRUE(service.heartbeat()->last_error().ok());
}

}  // namespace
}  // namespace gesall
