// System-level invariants of the scaling cases: apply_scale must
// produce grids whose *built* structure matches each case's contract.

#include <gtest/gtest.h>

#include "core/scaling.hpp"
#include "rms/scenario.hpp"

namespace scal {
namespace {

grid::GridConfig base_config() {
  grid::GridConfig config;
  config.rms = grid::RmsKind::kLowest;
  config.topology.nodes = 120;
  config.cluster_size = 20;
  config.horizon = 200.0;
  config.workload.mean_interarrival = 2.0;
  return config;
}

TEST(ScalingSystem, Case1GrowsBuiltClustersAndResources) {
  const auto scase = core::ScalingCase::case1_network_size();
  auto base = Scenario(core::apply_scale(base_config(), scase, 1.0)).build();
  auto scaled = Scenario(core::apply_scale(base_config(), scase, 3.0)).build();
  EXPECT_EQ(scaled->cluster_count(), 3 * base->cluster_count());
  EXPECT_EQ(scaled->layout().total_resources(),
            3 * base->layout().total_resources());
}

TEST(ScalingSystem, Case3AddsEstimatorsKeepsResourcePoolIdentical) {
  const auto scase = core::ScalingCase::case3_estimators();
  auto base = Scenario(core::apply_scale(base_config(), scase, 1.0)).build();
  auto scaled = Scenario(core::apply_scale(base_config(), scase, 4.0)).build();
  // "Only the RMS is explicitly scaled... the RP is unaltered."
  EXPECT_EQ(scaled->layout().total_resources(),
            base->layout().total_resources());
  EXPECT_EQ(scaled->cluster_count(), base->cluster_count());
  EXPECT_EQ(scaled->layout().total_estimators(),
            4 * base->layout().total_estimators());
}

TEST(ScalingSystem, Case2OnlySpeedsUpService) {
  const auto scase = core::ScalingCase::case2_service_rate();
  const auto scaled_config = core::apply_scale(base_config(), scase, 5.0);
  auto base = Scenario(base_config()).build();
  auto scaled = Scenario(scaled_config).build();
  EXPECT_EQ(scaled->cluster_count(), base->cluster_count());
  EXPECT_EQ(scaled->layout().total_resources(),
            base->layout().total_resources());
  // Mean service time scales down 5x.
  EXPECT_NEAR(scaled->mean_service_time(), base->mean_service_time() / 5.0,
              1e-9);
}

TEST(ScalingSystem, WorkloadScalesWithEveryCase) {
  for (const auto& scase :
       {core::ScalingCase::case1_network_size(),
        core::ScalingCase::case2_service_rate(),
        core::ScalingCase::case3_estimators(),
        core::ScalingCase::case4_neighborhood()}) {
    const auto r1 =
        Scenario(core::apply_scale(base_config(), scase, 1.0)).run();
    const auto r3 =
        Scenario(core::apply_scale(base_config(), scase, 3.0)).run();
    // Poisson noise aside, 3x the arrival rate.
    EXPECT_GT(r3.jobs_arrived, 2 * r1.jobs_arrived) << scase.name;
    EXPECT_LT(r3.jobs_arrived, 4 * r1.jobs_arrived) << scase.name;
  }
}

TEST(ScalingSystem, Case4ChangesOnlyPollFanout) {
  const auto scase = core::ScalingCase::case4_neighborhood();
  const auto c1 = core::apply_scale(base_config(), scase, 1.0);
  const auto c4 = core::apply_scale(base_config(), scase, 4.0);
  auto r1 = Scenario(c1).run();
  auto r4 = Scenario(c4).run();
  // Workload x4 and polls-per-REMOTE x4: polls grow ~16x.
  const double poll_growth = static_cast<double>(r4.polls) /
                             static_cast<double>(std::max<std::uint64_t>(
                                 1, r1.polls));
  EXPECT_GT(poll_growth, 8.0);
}

}  // namespace
}  // namespace scal
