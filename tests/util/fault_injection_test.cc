#include "util/fault_injection.h"

#include <gtest/gtest.h>

#include <vector>

namespace gesall {
namespace {

TEST(FaultInjectionTest, DisarmedInjectorNeverFails) {
  FaultInjector injector(7);
  for (int key = 0; key < 100; ++key) {
    EXPECT_FALSE(injector.ShouldFail(kFaultMapAttempt, key, 0));
    EXPECT_EQ(injector.LatencyMs(kFaultMapAttempt, key, 0), 0);
  }
  EXPECT_EQ(injector.fires(kFaultMapAttempt), 0);
}

TEST(FaultInjectionTest, ProbabilityIsDeterministicInSeed) {
  FaultInjector a(42), b(42), c(43);
  ASSERT_TRUE(a.ArmProbability(kFaultMapAttempt, 0.3).ok());
  ASSERT_TRUE(b.ArmProbability(kFaultMapAttempt, 0.3).ok());
  ASSERT_TRUE(c.ArmProbability(kFaultMapAttempt, 0.3).ok());
  int differs_from_c = 0;
  for (int key = 0; key < 1000; ++key) {
    bool fa = a.ShouldFail(kFaultMapAttempt, key, 0);
    EXPECT_EQ(fa, b.ShouldFail(kFaultMapAttempt, key, 0));
    differs_from_c += fa != c.ShouldFail(kFaultMapAttempt, key, 0);
  }
  EXPECT_GT(differs_from_c, 0);  // a different seed gives different faults
  // Empirical rate close to the armed probability.
  EXPECT_GT(a.fires(kFaultMapAttempt), 230);
  EXPECT_LT(a.fires(kFaultMapAttempt), 370);
  EXPECT_EQ(a.fires(kFaultMapAttempt), b.fires(kFaultMapAttempt));
}

TEST(FaultInjectionTest, DecisionIsPureInKeyAndAttempt) {
  FaultInjector injector(9);
  ASSERT_TRUE(injector.ArmProbability(kFaultSplitLoad, 0.5).ok());
  for (int key = 0; key < 50; ++key) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      bool first = injector.ShouldFail(kFaultSplitLoad, key, attempt);
      EXPECT_EQ(first, injector.ShouldFail(kFaultSplitLoad, key, attempt));
    }
  }
}

TEST(FaultInjectionTest, FirstAttemptsFailForEveryKey) {
  FaultInjector injector(1);
  ASSERT_TRUE(injector.ArmFirstAttempts(kFaultDfsReadReplica, 1).ok());
  for (int key = 0; key < 20; ++key) {
    EXPECT_TRUE(injector.ShouldFail(kFaultDfsReadReplica, key, 0));
    EXPECT_FALSE(injector.ShouldFail(kFaultDfsReadReplica, key, 1));
  }
  EXPECT_EQ(injector.fires(kFaultDfsReadReplica), 20);
}

TEST(FaultInjectionTest, ScheduleTargetsOneKey) {
  FaultInjector injector(1);
  injector.ArmSchedule(kFaultMapAttempt, /*key=*/3, {0, 1});
  EXPECT_TRUE(injector.ShouldFail(kFaultMapAttempt, 3, 0));
  EXPECT_TRUE(injector.ShouldFail(kFaultMapAttempt, 3, 1));
  EXPECT_FALSE(injector.ShouldFail(kFaultMapAttempt, 3, 2));
  EXPECT_FALSE(injector.ShouldFail(kFaultMapAttempt, 2, 0));
  EXPECT_FALSE(injector.ShouldFail(kFaultMapAttempt, 4, 1));
}

TEST(FaultInjectionTest, MaybeFailReturnsIOErrorNamingThePoint) {
  FaultInjector injector(1);
  injector.ArmSchedule(kFaultReduceAttempt, 2, {0});
  Status st = injector.MaybeFail(kFaultReduceAttempt, 2, 0);
  EXPECT_TRUE(st.IsIOError());
  EXPECT_NE(st.message().find(kFaultReduceAttempt), std::string::npos);
  EXPECT_TRUE(injector.MaybeFail(kFaultReduceAttempt, 2, 1).ok());
}

TEST(FaultInjectionTest, LatencyDelaysEveryAttempt) {
  FaultInjector injector(5);
  ASSERT_TRUE(injector.ArmLatency(kFaultMapAttempt, 1.0, 25).ok());
  for (int key = 0; key < 10; ++key) {
    EXPECT_EQ(injector.LatencyMs(kFaultMapAttempt, key, 0), 25);
    EXPECT_EQ(injector.LatencyMs(kFaultMapAttempt, key, 1), 25);
    EXPECT_EQ(injector.LatencyMs(kFaultMapAttempt, key, 7), 25);
  }
  EXPECT_EQ(injector.latency_fires(kFaultMapAttempt), 30);
  EXPECT_EQ(injector.fires(kFaultMapAttempt), 0);  // latency is not failure
}

TEST(FaultInjectionTest, DisarmStopsInjection) {
  FaultInjector injector(5);
  ASSERT_TRUE(injector.ArmFirstAttempts(kFaultMapAttempt, 5).ok());
  ASSERT_TRUE(injector.ArmFirstAttempts(kFaultSplitLoad, 5).ok());
  EXPECT_TRUE(injector.ShouldFail(kFaultMapAttempt, 0, 0));
  injector.Disarm(kFaultMapAttempt);
  EXPECT_FALSE(injector.ShouldFail(kFaultMapAttempt, 0, 0));
  EXPECT_TRUE(injector.ShouldFail(kFaultSplitLoad, 0, 0));
  injector.DisarmAll();
  EXPECT_FALSE(injector.ShouldFail(kFaultSplitLoad, 0, 0));
}

TEST(FaultInjectionTest, RejectsInvalidArming) {
  FaultInjector injector(1);
  EXPECT_TRUE(injector.ArmProbability(kFaultMapAttempt, -0.1)
                  .IsInvalidArgument());
  EXPECT_TRUE(injector.ArmProbability(kFaultMapAttempt, 1.5)
                  .IsInvalidArgument());
  EXPECT_TRUE(injector.ArmFirstAttempts(kFaultMapAttempt, -1)
                  .IsInvalidArgument());
  EXPECT_TRUE(injector.ArmLatency(kFaultMapAttempt, 2.0, 10)
                  .IsInvalidArgument());
  EXPECT_TRUE(injector.ArmLatency(kFaultMapAttempt, 0.5, -10)
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace gesall
