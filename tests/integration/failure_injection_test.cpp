// Failure injection: with a substantial fraction of control messages
// silently dropped, every policy must still conserve jobs, recover
// stranded negotiations through its watchdogs, and keep completing the
// bulk of the workload.  Job transfers are reliable by design.

#include <gtest/gtest.h>

#include "rms/scenario.hpp"

namespace scal {
namespace {

grid::GridConfig lossy_config(grid::RmsKind kind, double loss) {
  grid::GridConfig config;
  config.rms = kind;
  config.topology.nodes = 100;
  config.horizon = 600.0;
  config.workload.mean_interarrival = 1.0;
  config.control_loss_probability = loss;
  config.seed = 77;
  return config;
}

class FailureInjectionTest
    : public ::testing::TestWithParam<grid::RmsKind> {};

TEST_P(FailureInjectionTest, SurvivesThirtyPercentControlLoss) {
  const auto r = Scenario(lossy_config(GetParam(), 0.30)).run();
  // Messages really were dropped (policies without control traffic at
  // this load still lose status updates).
  EXPECT_GT(r.messages_dropped, 0u) << grid::to_string(GetParam());
  // Exact conservation: nothing stranded in pending maps forever.
  EXPECT_EQ(r.jobs_completed + r.jobs_unfinished, r.jobs_arrived);
  EXPECT_EQ(r.jobs_succeeded + r.jobs_missed_deadline, r.jobs_completed);
  // The grid still works: the large majority of jobs complete.
  EXPECT_GT(static_cast<double>(r.jobs_completed) /
                static_cast<double>(r.jobs_arrived),
            0.65);
}

TEST_P(FailureInjectionTest, DeterministicUnderLoss) {
  const auto a = Scenario(lossy_config(GetParam(), 0.2)).run();
  const auto b = Scenario(lossy_config(GetParam(), 0.2)).run();
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_DOUBLE_EQ(a.G(), b.G());
}

INSTANTIATE_TEST_SUITE_P(
    AllSeven, FailureInjectionTest,
    ::testing::ValuesIn(grid::kAllRmsKinds), [](const auto& info) {
      std::string name = grid::to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(FailureInjection, LossZeroDropsNothing) {
  const auto r = Scenario(lossy_config(grid::RmsKind::kLowest, 0.0)).run();
  EXPECT_EQ(r.messages_dropped, 0u);
}

TEST(FailureInjection, HigherLossDropsMore) {
  const auto low = Scenario(lossy_config(grid::RmsKind::kLowest, 0.1)).run();
  const auto high = Scenario(lossy_config(grid::RmsKind::kLowest, 0.4)).run();
  EXPECT_GT(high.messages_dropped, low.messages_dropped);
}

TEST(FailureInjection, LossDegradesButDoesNotBreakQuality) {
  const auto clean = Scenario(lossy_config(grid::RmsKind::kLowest, 0.0)).run();
  const auto lossy = Scenario(lossy_config(grid::RmsKind::kLowest, 0.5)).run();
  // Stale/missing information costs success, never correctness.
  EXPECT_LE(lossy.jobs_succeeded, clean.jobs_succeeded + 50);
  EXPECT_EQ(lossy.jobs_completed + lossy.jobs_unfinished,
            lossy.jobs_arrived);
}

TEST(FailureInjection, RejectsBadProbability) {
  grid::GridConfig config = lossy_config(grid::RmsKind::kLowest, 0.0);
  config.control_loss_probability = 1.0;
  EXPECT_THROW(Scenario(config).run(), std::invalid_argument);
  config.control_loss_probability = -0.1;
  EXPECT_THROW(Scenario(config).run(), std::invalid_argument);
}

}  // namespace
}  // namespace scal
