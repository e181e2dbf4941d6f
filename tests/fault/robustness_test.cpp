// System-level fault tolerance: every policy must survive resource
// churn, message faults, and control blackouts with exact job
// conservation, bounded loss, and sensible availability accounting.

#include <gtest/gtest.h>

#include "rms/scenario.hpp"

namespace scal {
namespace {

grid::GridConfig faulty_config(grid::RmsKind kind,
                               const std::string& spec) {
  grid::GridConfig config;
  config.rms = kind;
  config.topology.nodes = 100;
  config.horizon = 600.0;
  config.workload.mean_interarrival = 1.0;
  config.seed = 77;
  config.faults = fault::FaultPlan::parse(spec);
  return config;
}

class FaultToleranceTest
    : public ::testing::TestWithParam<grid::RmsKind> {};

TEST_P(FaultToleranceTest, SurvivesResourceChurn) {
  const auto r =
      Scenario(faulty_config(GetParam(), "churn:mtbf=150,mttr=25")).run();
  const std::string name = grid::to_string(GetParam());
  // Churn really happened and was recorded.
  EXPECT_GT(r.resource_crashes, 0u) << name;
  EXPECT_GT(r.resource_recoveries, 0u) << name;
  EXPECT_GT(r.resource_downtime, 0.0) << name;
  // Exact conservation: crash-killed jobs requeue or are counted lost,
  // and lost jobs stay a subset of unfinished.
  EXPECT_EQ(r.jobs_completed + r.jobs_unfinished, r.jobs_arrived) << name;
  EXPECT_LE(r.jobs_lost, r.jobs_killed) << name;
  EXPECT_LE(r.jobs_lost, r.jobs_unfinished) << name;
  // Availability accounting: strictly inside (0, 1) under real churn,
  // and the adjusted efficiency credits the RMS for the missing pool.
  EXPECT_GT(r.availability, 0.0) << name;
  EXPECT_LT(r.availability, 1.0) << name;
  EXPECT_GE(r.efficiency_avail(), r.efficiency()) << name;
  // The grid still completes the bulk of the workload.
  EXPECT_GT(static_cast<double>(r.jobs_completed) /
                static_cast<double>(r.jobs_arrived),
            0.5)
      << name;
}

TEST_P(FaultToleranceTest, SurvivesMessageFaults) {
  const auto r = Scenario(faulty_config(
      GetParam(), "net:drop=0.05,dup=0.05,delayp=0.2,delaym=2")).run();
  const std::string name = grid::to_string(GetParam());
  EXPECT_EQ(r.jobs_completed + r.jobs_unfinished, r.jobs_arrived) << name;
  EXPECT_GT(static_cast<double>(r.jobs_completed) /
                static_cast<double>(r.jobs_arrived),
            0.65)
      << name;
  // No churn: the pool never shrinks.
  EXPECT_EQ(r.resource_crashes, 0u) << name;
  EXPECT_DOUBLE_EQ(r.availability, 1.0) << name;
}

TEST_P(FaultToleranceTest, SurvivesControlBlackouts) {
  const auto r =
      Scenario(faulty_config(GetParam(),
                             "est-blackout:period=120,length=20;"
                             "sched-blackout:period=240,length=20"))
          .run();
  const std::string name = grid::to_string(GetParam());
  EXPECT_EQ(r.jobs_completed + r.jobs_unfinished, r.jobs_arrived) << name;
  EXPECT_GT(r.blackout_drops, 0u) << name;
  EXPECT_GT(static_cast<double>(r.jobs_completed) /
                static_cast<double>(r.jobs_arrived),
            0.5)
      << name;
}

TEST_P(FaultToleranceTest, SurvivesEverythingAtOnce) {
  const auto r = Scenario(faulty_config(
      GetParam(),
      "churn:mtbf=200,mttr=25;net:drop=0.03,delayp=0.1,delaym=2;"
      "est-blackout:period=150,length=15")).run();
  const std::string name = grid::to_string(GetParam());
  EXPECT_EQ(r.jobs_completed + r.jobs_unfinished, r.jobs_arrived) << name;
  EXPECT_GT(static_cast<double>(r.jobs_completed) /
                static_cast<double>(r.jobs_arrived),
            0.4)
      << name;
}

INSTANTIATE_TEST_SUITE_P(
    AllSeven, FaultToleranceTest, ::testing::ValuesIn(grid::kAllRmsKinds),
    [](const auto& info) {
      std::string name = grid::to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(FaultTolerance, KilledJobsRequeueWithinBudget) {
  const auto r = Scenario(
      faulty_config(grid::RmsKind::kLowest, "churn:mtbf=120,mttr=20")).run();
  EXPECT_GT(r.jobs_killed, 0u);
  EXPECT_GT(r.jobs_requeued, 0u);
  // Each kill consumes at most one requeue (or becomes a loss).
  EXPECT_LE(r.jobs_requeued + r.jobs_lost, r.jobs_killed);
}

TEST(FaultTolerance, MessageFaultCountersExported) {
  const auto r = Scenario(faulty_config(
      grid::RmsKind::kLowest, "net:dup=0.1,delayp=0.3,delaym=3")).run();
  EXPECT_GT(r.messages_duplicated, 0u);
  EXPECT_GT(r.messages_delayed, 0u);
}

TEST(FaultTolerance, StalenessEvictionEngages) {
  // Long outages push table entries past the staleness window; the
  // robustness mixin must actually evict them (counted).
  const auto r = Scenario(
      faulty_config(grid::RmsKind::kCentral, "churn:mtbf=150,mttr=60")).run();
  EXPECT_GT(r.status_evictions, 0u);
}

TEST(FaultTolerance, ChurnCostsShowUpInOverhead) {
  // The robustness machinery (retries, requeues, repeat decisions) is
  // charged to G: a faulty run must not report less RMS work than the
  // identical clean run while completing less useful work.
  const auto clean =
      Scenario(faulty_config(grid::RmsKind::kLowest, "")).run();
  const auto churned = Scenario(
      faulty_config(grid::RmsKind::kLowest, "churn:mtbf=150,mttr=25")).run();
  EXPECT_LT(churned.jobs_completed, clean.jobs_completed);
  EXPECT_LT(churned.efficiency(), clean.efficiency());
}

TEST(FaultTolerance, RejectsInvalidPlan) {
  grid::GridConfig config = faulty_config(grid::RmsKind::kLowest, "");
  config.faults.churn.mtbf = 100.0;  // mttr missing
  EXPECT_THROW(Scenario(config).run(), std::invalid_argument);
}

}  // namespace
}  // namespace scal
