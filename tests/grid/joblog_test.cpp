#include "grid/joblog.hpp"

#include <gtest/gtest.h>

#include "rms/scenario.hpp"

namespace scal::grid {
namespace {

TEST(JobLog, DisabledRecordsNothing) {
  JobLog log;
  log.record(1, JobEvent::kArrival, 0.0);
  EXPECT_EQ(log.size(), 0u);
}

TEST(JobLog, TimelineAndQueries) {
  JobLog log;
  log.set_enabled(true);
  log.record(7, JobEvent::kArrival, 1.0, 2);
  log.record(8, JobEvent::kArrival, 1.5, 0);
  log.record(7, JobEvent::kTransfer, 2.0, 4);
  log.record(7, JobEvent::kDispatch, 3.0, 4);
  log.record(7, JobEvent::kStart, 4.5, 11);
  log.record(7, JobEvent::kComplete, 9.0, 11);

  const auto timeline = log.timeline(7);
  ASSERT_EQ(timeline.size(), 5u);
  EXPECT_EQ(timeline[0].event, JobEvent::kArrival);
  EXPECT_EQ(timeline[4].event, JobEvent::kComplete);
  EXPECT_EQ(timeline[1].place, 4u);

  EXPECT_EQ(log.count(JobEvent::kArrival), 2u);
  EXPECT_EQ(log.transfer_hops(7), 1u);
  EXPECT_EQ(log.transfer_hops(8), 0u);
  EXPECT_TRUE(log.timeline(99).empty());

  const auto waits = log.delays(JobEvent::kArrival, JobEvent::kStart);
  EXPECT_EQ(waits.count(), 1u);  // job 8 never started
  EXPECT_DOUBLE_EQ(waits.mean(), 3.5);
}

TEST(JobLog, EventNames) {
  EXPECT_STREQ(to_string(JobEvent::kArrival), "arrival");
  EXPECT_STREQ(to_string(JobEvent::kComplete), "complete");
}

TEST(JobLog, FullSimulationProducesConsistentLifecycles) {
  grid::GridConfig config;
  config.rms = grid::RmsKind::kLowest;
  config.topology.nodes = 100;
  config.horizon = 400.0;
  config.workload.mean_interarrival = 1.5;
  config.job_log = true;

  auto system = Scenario(config).build();
  const SimulationResult r = system->run();
  const JobLog& log = system->job_log();

  EXPECT_EQ(log.count(JobEvent::kArrival), r.jobs_arrived);
  EXPECT_EQ(log.count(JobEvent::kComplete), r.jobs_completed);
  // Every completed job must have started, every start must follow a
  // dispatch.
  EXPECT_GE(log.count(JobEvent::kStart), log.count(JobEvent::kComplete));
  EXPECT_GE(log.count(JobEvent::kDispatch), log.count(JobEvent::kStart));
  // Transfers recorded in the log match the metrics counter.
  EXPECT_EQ(log.count(JobEvent::kTransfer), r.transfers);

  // Spot-check monotone timelines.
  std::size_t checked = 0;
  for (const JobLogRecord& rec : log.records()) {
    if (rec.event != JobEvent::kArrival || checked >= 25) continue;
    ++checked;
    const auto timeline = log.timeline(rec.job);
    for (std::size_t i = 1; i < timeline.size(); ++i) {
      EXPECT_LE(timeline[i - 1].at, timeline[i].at);
    }
  }

  // Placement latency (arrival -> start) is positive and bounded by
  // the horizon.
  const auto waits = log.delays(JobEvent::kArrival, JobEvent::kStart);
  EXPECT_GT(waits.count(), 0u);
  EXPECT_GE(waits.min(), 0.0);
  EXPECT_LE(waits.max(), config.horizon);
}

TEST(JobLog, OffByDefault) {
  grid::GridConfig config;
  config.rms = grid::RmsKind::kLowest;
  config.topology.nodes = 80;
  config.horizon = 150.0;
  auto system = Scenario(config).build();
  system->run();
  EXPECT_EQ(system->job_log().size(), 0u);
}

}  // namespace
}  // namespace scal::grid
