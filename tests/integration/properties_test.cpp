// Property-based sweeps: invariants that must hold for every policy,
// seed, topology kind, and load level.

#include <gtest/gtest.h>

#include <tuple>

#include "rms/scenario.hpp"

namespace scal {
namespace {

using PropertyParam =
    std::tuple<grid::RmsKind, std::uint64_t /*seed*/, double /*interarrival*/>;

class SimulationProperties
    : public ::testing::TestWithParam<PropertyParam> {
 protected:
  grid::GridConfig make_config() const {
    const auto& [kind, seed, interarrival] = GetParam();
    grid::GridConfig config;
    config.rms = kind;
    config.topology.nodes = 100;
    config.horizon = 400.0;
    config.workload.mean_interarrival = interarrival;
    config.seed = seed;
    return config;
  }
};

TEST_P(SimulationProperties, Invariants) {
  const auto r = Scenario(make_config()).run();

  // Job conservation.
  EXPECT_EQ(r.jobs_local + r.jobs_remote, r.jobs_arrived);
  EXPECT_EQ(r.jobs_completed + r.jobs_unfinished, r.jobs_arrived);
  EXPECT_EQ(r.jobs_succeeded + r.jobs_missed_deadline, r.jobs_completed);

  // Work terms non-negative; efficiency in (0, 1).
  EXPECT_GE(r.F, 0.0);
  EXPECT_GE(r.G_scheduler, 0.0);
  EXPECT_GE(r.G_estimator, 0.0);
  EXPECT_GE(r.G_middleware, 0.0);
  EXPECT_GE(r.H_control, 0.0);
  EXPECT_GE(r.H_wasted, 0.0);
  if (r.jobs_completed > 0) {
    EXPECT_GT(r.efficiency(), 0.0);
    EXPECT_LT(r.efficiency(), 1.0);
  }

  // F and wasted work are measured in resource service time, so their
  // sum is bounded by (number of resources) x horizon.
  const grid::GridConfig config = make_config();
  const double resources = static_cast<double>(
      config.cluster_count() *
      (config.cluster_size - 1 - config.estimators_per_cluster));
  EXPECT_LE(r.F + r.H_wasted, resources * r.horizon + 1e-9);

  // Response times are positive and p95 >= mean is not required, but
  // p95 must be >= the median-ish floor of 0.
  if (r.jobs_completed > 0) {
    EXPECT_GT(r.mean_response, 0.0);
    EXPECT_GE(r.p95_response, 0.0);
  }

  // Suppression never exceeds the number of reporting opportunities.
  EXPECT_GT(r.updates_received + r.updates_suppressed, 0u);

  // Throughput consistent with completions.
  EXPECT_NEAR(r.throughput * r.horizon,
              static_cast<double>(r.jobs_completed), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimulationProperties,
    ::testing::Combine(::testing::ValuesIn(grid::kAllRmsKinds),
                       ::testing::Values(1u, 42u, 20250705u),
                       ::testing::Values(0.6, 1.2, 4.0)),
    [](const auto& info) {
      std::string name = grid::to_string(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      name += "_seed" + std::to_string(std::get<1>(info.param));
      name += "_ia" + std::to_string(
                          static_cast<int>(std::get<2>(info.param) * 10));
      return name;
    });

class TopologyProperties
    : public ::testing::TestWithParam<net::TopologyKind> {};

TEST_P(TopologyProperties, AnyConnectedTopologyWorks) {
  grid::GridConfig config;
  config.rms = grid::RmsKind::kLowest;
  config.topology.kind = GetParam();
  config.topology.nodes = 80;
  config.horizon = 300.0;
  config.workload.mean_interarrival = 2.0;
  const auto r = Scenario(config).run();
  EXPECT_GT(r.jobs_completed, 0u);
  EXPECT_EQ(r.jobs_completed + r.jobs_unfinished, r.jobs_arrived);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, TopologyProperties,
    ::testing::Values(net::TopologyKind::kPreferentialAttachment,
                      net::TopologyKind::kWaxman,
                      net::TopologyKind::kRingLattice,
                      net::TopologyKind::kStar,
                      net::TopologyKind::kTransitStub),
    [](const auto& info) {
      std::string name = to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(LoadMonotonicity, MoreLoadMoreArrivals) {
  grid::GridConfig config;
  config.rms = grid::RmsKind::kLowest;
  config.topology.nodes = 100;
  config.horizon = 400.0;
  std::uint64_t prev_arrived = 0;
  for (const double ia : {4.0, 2.0, 1.0, 0.5}) {
    config.workload.mean_interarrival = ia;
    const auto r = Scenario(config).run();
    EXPECT_GT(r.jobs_arrived, prev_arrived);
    prev_arrived = r.jobs_arrived;
  }
}

TEST(HorizonMonotonicity, LongerHorizonMoreWork) {
  grid::GridConfig config;
  config.rms = grid::RmsKind::kSenderInitiated;
  config.topology.nodes = 100;
  config.workload.mean_interarrival = 1.0;
  config.horizon = 300.0;
  const auto short_run = Scenario(config).run();
  config.horizon = 600.0;
  const auto long_run = Scenario(config).run();
  EXPECT_GT(long_run.jobs_arrived, short_run.jobs_arrived);
  EXPECT_GT(long_run.F, short_run.F);
  EXPECT_GT(long_run.G(), short_run.G());
}

}  // namespace
}  // namespace scal
