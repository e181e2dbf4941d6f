#include "grid/metrics.hpp"

#include <gtest/gtest.h>

namespace scal::grid {
namespace {

workload::Job job_with(double exec, double arrival, double factor) {
  workload::Job j;
  j.exec_time = exec;
  j.arrival = arrival;
  j.benefit_factor = factor;
  j.job_class = exec <= 700.0 ? workload::JobClass::kLocal
                              : workload::JobClass::kRemote;
  return j;
}

TEST(MetricsCollector, ArrivalClassCounting) {
  MetricsCollector m;
  m.record_arrival(job_with(100.0, 0.0, 3.0));
  m.record_arrival(job_with(900.0, 1.0, 3.0));
  EXPECT_EQ(m.snapshot().jobs_arrived, 2u);
  EXPECT_EQ(m.snapshot().jobs_local, 1u);
  EXPECT_EQ(m.snapshot().jobs_remote, 1u);
}

TEST(MetricsCollector, SuccessWithinBenefitWindow) {
  MetricsCollector m;
  const auto j = job_with(100.0, 10.0, 2.0);
  // Response 19 <= 2 * service(10) = 20: success.
  m.record_completion(j, 29.0, 10.0, 0.5);
  EXPECT_EQ(m.snapshot().jobs_succeeded, 1u);
  EXPECT_DOUBLE_EQ(m.snapshot().F, 10.0);
  EXPECT_DOUBLE_EQ(m.snapshot().H_wasted, 0.0);
  EXPECT_DOUBLE_EQ(m.snapshot().H_control, 0.5);
}

TEST(MetricsCollector, MissBeyondBenefitWindow) {
  MetricsCollector m;
  const auto j = job_with(100.0, 10.0, 2.0);
  // Response 21 > 20: miss; its work counts as waste.
  m.record_completion(j, 31.0, 10.0, 0.5);
  EXPECT_EQ(m.snapshot().jobs_missed_deadline, 1u);
  EXPECT_DOUBLE_EQ(m.snapshot().F, 0.0);
  EXPECT_DOUBLE_EQ(m.snapshot().H_wasted, 10.0);
}

TEST(MetricsCollector, ExactBoundaryCountsAsSuccess) {
  MetricsCollector m;
  const auto j = job_with(100.0, 0.0, 2.0);
  m.record_completion(j, 20.0, 10.0, 0.0);
  EXPECT_EQ(m.snapshot().jobs_succeeded, 1u);
}

TEST(MetricsCollector, UnfinishedAddsWaste) {
  MetricsCollector m;
  m.record_unfinished(7.5);
  // The collector books the waste only; the result counts unfinished
  // jobs as arrived - completed.
  EXPECT_DOUBLE_EQ(m.snapshot().H_wasted, 7.5);
  EXPECT_EQ(m.snapshot().jobs_completed, 0u);
}

TEST(MetricsCollector, ResponseTimeSamplesRecorded) {
  MetricsCollector m;
  m.record_completion(job_with(10.0, 0.0, 100.0), 5.0, 1.0, 0.0);
  m.record_completion(job_with(10.0, 0.0, 100.0), 15.0, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(m.response_mean(), 10.0);
}

TEST(SimulationResult, EfficiencyFormula) {
  SimulationResult r;
  r.F = 40.0;
  r.G_scheduler = 20.0;
  r.G_estimator = 15.0;
  r.G_middleware = 5.0;
  r.H_control = 10.0;
  r.H_wasted = 10.0;
  EXPECT_DOUBLE_EQ(r.G(), 40.0);
  EXPECT_DOUBLE_EQ(r.H(), 20.0);
  EXPECT_DOUBLE_EQ(r.efficiency(), 0.4);
}

TEST(SimulationResult, ZeroWorkZeroEfficiency) {
  SimulationResult r;
  EXPECT_DOUBLE_EQ(r.efficiency(), 0.0);
}

TEST(MetricsCollector, ProtocolCounters) {
  MetricsCollector m;
  m.count_poll();
  m.count_poll();
  m.count_transfer();
  m.count_auction();
  m.count_advert();
  m.count_update_received();
  m.count_update_suppressed();
  EXPECT_EQ(m.snapshot().polls, 2u);
  EXPECT_EQ(m.snapshot().transfers, 1u);
  EXPECT_EQ(m.snapshot().auctions, 1u);
  EXPECT_EQ(m.snapshot().adverts, 1u);
  EXPECT_EQ(m.snapshot().updates_received, 1u);
  EXPECT_EQ(m.snapshot().updates_suppressed, 1u);
}

}  // namespace
}  // namespace scal::grid
