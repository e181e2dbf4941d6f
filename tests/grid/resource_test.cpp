#include "grid/resource.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace scal::grid {
namespace {

workload::Job make_job(workload::JobId id, double exec, double arrival = 0.0,
                       double benefit_factor = 3.0) {
  workload::Job j;
  j.id = id;
  j.arrival = arrival;
  j.exec_time = exec;
  j.benefit_factor = benefit_factor;
  j.benefit_deadline = benefit_factor * exec;
  return j;
}

class ResourceTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  MetricsCollector metrics_;
  std::vector<StatusUpdate> reports_;

  std::unique_ptr<Resource> make_resource(double rate = 2.0,
                                          double control = 0.0) {
    return std::make_unique<Resource>(
        sim_, 0, /*cluster=*/0, /*index=*/0, rate, control, metrics_,
        [this](const StatusUpdate& u) { reports_.push_back(u); });
  }
};

TEST_F(ResourceTest, ExecutesJobAtServiceRate) {
  auto res = make_resource(/*rate=*/2.0);
  res->accept_job(make_job(1, 10.0));
  EXPECT_TRUE(res->busy());
  EXPECT_DOUBLE_EQ(res->load(), 1.0);
  sim_.run();
  EXPECT_DOUBLE_EQ(sim_.now(), 5.0);  // 10 / 2
  EXPECT_FALSE(res->busy());
  EXPECT_EQ(metrics_.snapshot().jobs_completed, 1u);
}

TEST_F(ResourceTest, JobControlDelaysAndCounts) {
  auto res = make_resource(/*rate=*/1.0, /*control=*/0.5);
  res->accept_job(make_job(1, 10.0));
  sim_.run();
  EXPECT_DOUBLE_EQ(sim_.now(), 10.5);
  EXPECT_DOUBLE_EQ(metrics_.snapshot().H_control, 0.5);
}

TEST_F(ResourceTest, FifoQueueing) {
  auto res = make_resource(/*rate=*/1.0);
  std::vector<double> completions;
  res->accept_job(make_job(1, 5.0));
  res->accept_job(make_job(2, 3.0));
  EXPECT_DOUBLE_EQ(res->load(), 2.0);
  EXPECT_EQ(res->queue_length(), 1u);
  sim_.run();
  EXPECT_EQ(metrics_.snapshot().jobs_completed, 2u);
  EXPECT_DOUBLE_EQ(sim_.now(), 8.0);
}

TEST_F(ResourceTest, SuccessUsesBenefitFactorTimesRunTime) {
  auto res = make_resource(/*rate=*/2.0);
  // Job 1 runs immediately: response 5 <= 3 * 5 -> success.
  res->accept_job(make_job(1, 10.0, 0.0, 3.0));
  // Job 2 with tight factor queued behind: response = 5 (wait) + 5 (run)
  // = 10 > 1.5 * 5 -> miss.
  res->accept_job(make_job(2, 10.0, 0.0, 1.5));
  sim_.run();
  EXPECT_EQ(metrics_.snapshot().jobs_succeeded, 1u);
  EXPECT_EQ(metrics_.snapshot().jobs_missed_deadline, 1u);
  EXPECT_DOUBLE_EQ(metrics_.snapshot().F, 5.0);
  EXPECT_DOUBLE_EQ(metrics_.snapshot().H_wasted, 5.0);
}

TEST_F(ResourceTest, StealTakesMostRecentQueuedJobOnly) {
  auto res = make_resource();
  EXPECT_FALSE(res->steal_queued_job().has_value());
  res->accept_job(make_job(1, 10.0));
  // In service: not stealable.
  EXPECT_FALSE(res->steal_queued_job().has_value());
  res->accept_job(make_job(2, 10.0));
  res->accept_job(make_job(3, 10.0));
  const auto stolen = res->steal_queued_job();
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->id, 3u);
  EXPECT_DOUBLE_EQ(res->load(), 2.0);
}

TEST_F(ResourceTest, PeriodicReportingWithSuppression) {
  auto res = make_resource();
  res->start_reporting(/*interval=*/10.0, /*offset=*/0.0,
                       /*suppression=*/true);
  sim_.run(35.0);
  res->credit_skipped_ticks(sim_.now());
  // First report sent, the rest suppressed (idle, unchanged).
  EXPECT_EQ(reports_.size(), 1u);
  EXPECT_EQ(metrics_.snapshot().updates_suppressed, 3u);
  EXPECT_DOUBLE_EQ(reports_[0].load, 0.0);
}

TEST_F(ResourceTest, ReportsOnLoadChange) {
  auto res = make_resource(/*rate=*/1.0);
  res->start_reporting(10.0, 0.0, true);
  sim_.schedule_at(12.0, [&] { res->accept_job(make_job(1, 15.0)); });
  sim_.run(45.0);
  // t=0: load 0 (sent); t=10: suppressed; t=20: load 1 (sent);
  // job completes at 27; t=30: load 0 (sent); t=40: suppressed.
  ASSERT_EQ(reports_.size(), 3u);
  EXPECT_DOUBLE_EQ(reports_[1].load, 1.0);
  EXPECT_TRUE(reports_[1].busy);
  EXPECT_DOUBLE_EQ(reports_[2].load, 0.0);
}

TEST_F(ResourceTest, NoSuppressionSendsEveryTick) {
  auto res = make_resource();
  res->start_reporting(10.0, 0.0, /*suppression=*/false);
  sim_.run(35.0);
  EXPECT_EQ(reports_.size(), 4u);
  EXPECT_EQ(metrics_.snapshot().updates_suppressed, 0u);
}

TEST_F(ResourceTest, ReportOffsetDelaysFirstReport) {
  auto res = make_resource();
  res->start_reporting(10.0, 7.0, true);
  sim_.run(8.0);
  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_DOUBLE_EQ(reports_[0].stamp, 7.0);
}

TEST_F(ResourceTest, InServicePartialExcludesControl) {
  auto res = make_resource(/*rate=*/1.0, /*control=*/2.0);
  res->accept_job(make_job(1, 10.0));
  sim_.run(5.0);
  // 5 elapsed - 2 control = 3 of actual execution.
  EXPECT_DOUBLE_EQ(res->in_service_partial(), 3.0);
  sim_.run(1000.0);
  EXPECT_DOUBLE_EQ(res->in_service_partial(), 0.0);  // idle
}

TEST_F(ResourceTest, RejectsBadParameters) {
  EXPECT_THROW(Resource(sim_, 0, 0, 0, 0.0, 0.0, metrics_, {}),
               std::invalid_argument);
  auto res = make_resource();
  EXPECT_THROW(res->start_reporting(0.0, 0.0, true), std::invalid_argument);
}

}  // namespace
}  // namespace scal::grid
