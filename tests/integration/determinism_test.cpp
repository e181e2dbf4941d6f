// Determinism: the whole experiment is a pure function of
// (configuration, seed).  These tests protect the property the
// measurement procedure's reproducibility rests on.

#include <gtest/gtest.h>

#include "core/procedure.hpp"
#include "rms/scenario.hpp"

namespace scal {
namespace {

grid::GridConfig config_for(grid::RmsKind kind, std::uint64_t seed) {
  grid::GridConfig config;
  config.rms = kind;
  config.topology.nodes = 120;
  config.horizon = 500.0;
  config.workload.mean_interarrival = 1.0;
  config.seed = seed;
  return config;
}

bool results_identical(const grid::SimulationResult& a,
                       const grid::SimulationResult& b) {
  return a.F == b.F && a.G_scheduler == b.G_scheduler &&
         a.G_estimator == b.G_estimator &&
         a.G_middleware == b.G_middleware && a.H_control == b.H_control &&
         a.H_wasted == b.H_wasted && a.jobs_arrived == b.jobs_arrived &&
         a.jobs_completed == b.jobs_completed &&
         a.jobs_succeeded == b.jobs_succeeded &&
         a.mean_response == b.mean_response &&
         a.network_messages == b.network_messages &&
         a.events_dispatched == b.events_dispatched &&
         a.polls == b.polls && a.transfers == b.transfers &&
         a.auctions == b.auctions && a.adverts == b.adverts;
}

class DeterminismTest : public ::testing::TestWithParam<grid::RmsKind> {};

TEST_P(DeterminismTest, BitIdenticalAcrossRuns) {
  const auto a = Scenario(config_for(GetParam(), 42)).run();
  const auto b = Scenario(config_for(GetParam(), 42)).run();
  EXPECT_TRUE(results_identical(a, b)) << grid::to_string(GetParam());
}

TEST_P(DeterminismTest, SeedChangesOutcome) {
  const auto a = Scenario(config_for(GetParam(), 1)).run();
  const auto b = Scenario(config_for(GetParam(), 99)).run();
  EXPECT_FALSE(results_identical(a, b)) << grid::to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllSeven, DeterminismTest, ::testing::ValuesIn(grid::kAllRmsKinds),
    [](const auto& info) {
      std::string name = grid::to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(DeterminismTest2, ProcedureIsDeterministic) {
  core::ProcedureConfig procedure;
  procedure.scase = core::ScalingCase::case1_network_size();
  procedure.scale_factors = {1, 2};
  procedure.tuner.evaluations = 3;
  procedure.tuner.e0 = 0.85;
  procedure.tuner.band = 0.1;

  const auto run = [&] {
    return core::measure_scalability(config_for(grid::RmsKind::kLowest, 7),
                                     grid::RmsKind::kLowest, procedure);
  };
  const core::CaseResult a = run();
  const core::CaseResult b = run();
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.points[i].sim.G(), b.points[i].sim.G());
    EXPECT_DOUBLE_EQ(a.points[i].tuning.update_interval,
                     b.points[i].tuning.update_interval);
  }
}

TEST(DeterminismTest2, TopologySeedIsolatedFromWorkloadSeed) {
  // Changing nothing but a named stream's consumer count must not
  // perturb other streams: two configs differing only in RMS kind see
  // the identical workload and topology.
  const auto a = Scenario(config_for(grid::RmsKind::kCentral, 5)).run();
  const auto b = Scenario(config_for(grid::RmsKind::kLowest, 5)).run();
  EXPECT_EQ(a.jobs_arrived, b.jobs_arrived);
  EXPECT_EQ(a.jobs_local, b.jobs_local);
  EXPECT_EQ(a.jobs_remote, b.jobs_remote);
}

}  // namespace
}  // namespace scal
