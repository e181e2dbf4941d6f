// End-to-end: run the paper's measurement procedure on real simulations
// at reduced scale and check the qualitative structure the framework is
// supposed to expose.

#include <gtest/gtest.h>

#include "core/procedure.hpp"
#include "rms/scenario.hpp"

namespace scal {
namespace {

grid::GridConfig small_base() {
  grid::GridConfig config;
  config.topology.nodes = 100;
  config.cluster_size = 20;
  config.horizon = 500.0;
  config.workload.mean_interarrival = 0.85;
  config.seed = 42;
  return config;
}

TEST(EndToEnd, FullProcedureProducesAnalyzableSweep) {
  core::ProcedureConfig procedure;
  procedure.scase = core::ScalingCase::case1_network_size();
  procedure.scale_factors = {1, 2};
  procedure.tuner.evaluations = 4;
  procedure.warm_evaluations = 3;
  procedure.tuner.e0 =
      Scenario(small_base()).run().efficiency();
  procedure.tuner.band = 0.08;

  const core::CaseResult result = core::measure_scalability(
      small_base(), grid::RmsKind::kLowest, procedure);
  const core::IsoefficiencyReport report = core::analyze(result);
  ASSERT_EQ(report.k.size(), 2u);
  EXPECT_GT(report.G[1], report.G[0]);  // more work at larger scale
  EXPECT_GT(report.f[1], 1.2);          // useful work grew with workload
}

TEST(EndToEnd, CentralPaysMoreThanDistributedPerDecisionAtScale) {
  // Case 1 mechanism check: CENTRAL's per-job overhead grows with the
  // pool it tracks; LOWEST's does not.
  auto run = [](grid::RmsKind kind, std::size_t nodes) {
    grid::GridConfig config = small_base();
    config.rms = kind;
    config.topology.nodes = nodes;
    config.workload.mean_interarrival =
        0.85 * 100.0 / static_cast<double>(nodes);
    const auto r = Scenario(config).run();
    return r.G_scheduler / static_cast<double>(r.jobs_arrived);
  };
  const double central_growth =
      run(grid::RmsKind::kCentral, 300) / run(grid::RmsKind::kCentral, 100);
  const double lowest_growth =
      run(grid::RmsKind::kLowest, 300) / run(grid::RmsKind::kLowest, 100);
  EXPECT_GT(central_growth, lowest_growth);
}

TEST(EndToEnd, EstimatorScalingHurtsAuctionMoreThanLowest) {
  // Case 3 mechanism check at small scale (the Figure 4 kink).
  auto run = [](grid::RmsKind kind, std::size_t estimators) {
    grid::GridConfig config = small_base();
    config.rms = kind;
    config.estimators_per_cluster = estimators;
    config.cluster_size = 19 + estimators;
    config.topology.nodes = 95 + 5 * estimators;
    config.workload.mean_interarrival = 3.0;
    return Scenario(config).run().G();
  };
  const double auction_growth = run(grid::RmsKind::kAuction, 4) /
                                run(grid::RmsKind::kAuction, 1);
  const double lowest_growth =
      run(grid::RmsKind::kLowest, 4) / run(grid::RmsKind::kLowest, 1);
  EXPECT_GT(auction_growth, lowest_growth);
}

TEST(EndToEnd, NeighborhoodScalingHurtsPollersMost) {
  // Case 4 mechanism check (the Figure 5 contrast): LOWEST's overhead
  // scales with L_p; R-I's volunteering barely depends on it.
  auto run = [](grid::RmsKind kind, std::uint32_t lp) {
    grid::GridConfig config = small_base();
    config.rms = kind;
    config.tuning.neighborhood_size = lp;
    return Scenario(config).run().G();
  };
  const double lowest_growth =
      run(grid::RmsKind::kLowest, 8) / run(grid::RmsKind::kLowest, 2);
  const double ri_growth = run(grid::RmsKind::kReceiverInitiated, 8) /
                           run(grid::RmsKind::kReceiverInitiated, 2);
  EXPECT_GT(lowest_growth, ri_growth);
}

TEST(EndToEnd, SaturatedCentralShowsWorkInSystemBlowup) {
  // Slam one central scheduler with a heavy arrival stream: the
  // work-in-system G must grow superlinearly versus a mild stream.
  auto run = [](double interarrival) {
    grid::GridConfig config = small_base();
    config.rms = grid::RmsKind::kCentral;
    config.topology.nodes = 200;
    config.workload.mean_interarrival = interarrival;
    // Expensive decisions to force saturation.
    config.costs.sched_decision_base = 0.4;
    return Scenario(config).run().G_scheduler;
  };
  const double mild = run(1.0);
  const double heavy = run(0.25);  // 4x the load
  EXPECT_GT(heavy, 6.0 * mild);
}

TEST(EndToEnd, ExampleQuickstartPathWorks) {
  // The quickstart example's exact flow: default config + one policy.
  grid::GridConfig config;
  config.rms = grid::RmsKind::kSymmetric;
  config.topology.nodes = 200;
  config.horizon = 500.0;
  config.workload.mean_interarrival = 4.0;
  const auto r = Scenario(config).run();
  EXPECT_GT(r.jobs_completed, 0u);
  EXPECT_GT(r.efficiency(), 0.0);
}

}  // namespace
}  // namespace scal
