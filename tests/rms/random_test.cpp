// RANDOM baseline (Zhou'88 comparator) behavior, and the comparison that
// justifies status estimation: informed policies beat it.

#include <gtest/gtest.h>

#include "rms/scenario.hpp"

namespace scal::rms {
namespace {

grid::GridConfig cfg(grid::RmsKind kind, double ia = 0.45) {
  grid::GridConfig config;
  config.rms = kind;
  config.topology.nodes = 200;
  config.horizon = 900.0;
  config.workload.mean_interarrival = ia;
  config.seed = 21;
  return config;
}

TEST(RandomPolicy, StringRoundTrip) {
  EXPECT_EQ(grid::to_string(grid::RmsKind::kRandom), "RANDOM");
  EXPECT_EQ(grid::rms_from_string("RANDOM"), grid::RmsKind::kRandom);
}

TEST(RandomPolicy, RunsAndConserves) {
  const auto r = Scenario(cfg(grid::RmsKind::kRandom)).run();
  EXPECT_GT(r.jobs_completed, 0u);
  EXPECT_EQ(r.jobs_completed + r.jobs_unfinished, r.jobs_arrived);
  // No status-driven traffic at all.
  EXPECT_EQ(r.polls, 0u);
  EXPECT_EQ(r.auctions, 0u);
  EXPECT_EQ(r.adverts, 0u);
  // But REMOTE jobs do move.
  EXPECT_GT(r.transfers, 0u);
}

TEST(RandomPolicy, InformedPoliciesBeatIt) {
  // Zhou's core result, reproduced: at meaningful load, LOWEST's
  // deadline success beats blind random placement.
  const auto random = Scenario(cfg(grid::RmsKind::kRandom)).run();
  const auto lowest = Scenario(cfg(grid::RmsKind::kLowest)).run();
  EXPECT_GT(lowest.jobs_succeeded, random.jobs_succeeded);
  EXPECT_LT(lowest.mean_response, random.mean_response);
}

TEST(RandomPolicy, Deterministic) {
  const auto a = Scenario(cfg(grid::RmsKind::kRandom)).run();
  const auto b = Scenario(cfg(grid::RmsKind::kRandom)).run();
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_DOUBLE_EQ(a.G(), b.G());
}

TEST(BottleneckIsolation, CentralConcentratesSchedulerWork) {
  const auto central = Scenario(cfg(grid::RmsKind::kCentral)).run();
  EXPECT_DOUBLE_EQ(central.G_scheduler_max_share, 1.0);

  const auto lowest = Scenario(cfg(grid::RmsKind::kLowest)).run();
  // 10 clusters: a balanced distributed RMS stays well below 1.
  EXPECT_LT(lowest.G_scheduler_max_share, 0.5);
  EXPECT_GT(lowest.G_scheduler_max_share, 0.05);
  EXPECT_LE(lowest.G_scheduler_max, lowest.G_scheduler);
}

TEST(BottleneckIsolation, HierRootIsTheHotspot) {
  const auto hier = Scenario(cfg(grid::RmsKind::kHierarchical)).run();
  // The root does all REMOTE routing: its share sits between the
  // balanced-distributed and fully-central extremes.
  EXPECT_GT(hier.G_scheduler_max_share, 0.15);
  EXPECT_LT(hier.G_scheduler_max_share, 1.0);
}

}  // namespace
}  // namespace scal::rms
