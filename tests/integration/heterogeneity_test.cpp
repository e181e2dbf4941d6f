// Heterogeneous-resources extension: correctness and the expected
// qualitative effects (same total capacity in expectation, degraded
// placement quality as load views stop matching reality).

#include <gtest/gtest.h>

#include "rms/scenario.hpp"

namespace scal {
namespace {

grid::GridConfig hetero_config(double h, grid::RmsKind kind =
                                             grid::RmsKind::kLowest) {
  grid::GridConfig config;
  config.rms = kind;
  config.topology.nodes = 120;
  config.horizon = 700.0;
  config.workload.mean_interarrival = 0.85;
  config.heterogeneity = h;
  config.seed = 5;
  return config;
}

TEST(Heterogeneity, ZeroMatchesHomogeneousBaseline) {
  const auto a = Scenario(hetero_config(0.0)).run();
  grid::GridConfig explicit_zero = hetero_config(0.0);
  explicit_zero.heterogeneity = 0.0;
  const auto b = Scenario(explicit_zero).run();
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_DOUBLE_EQ(a.F, b.F);
}

TEST(Heterogeneity, ConservationHoldsAcrossSpread) {
  for (const double h : {0.2, 0.5, 0.8}) {
    const auto r = Scenario(hetero_config(h)).run();
    EXPECT_EQ(r.jobs_completed + r.jobs_unfinished, r.jobs_arrived) << h;
    EXPECT_EQ(r.jobs_succeeded + r.jobs_missed_deadline, r.jobs_completed)
        << h;
    EXPECT_GT(r.jobs_completed, 0u) << h;
  }
}

TEST(Heterogeneity, Deterministic) {
  const auto a = Scenario(hetero_config(0.6)).run();
  const auto b = Scenario(hetero_config(0.6)).run();
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_DOUBLE_EQ(a.G(), b.G());
}

TEST(Heterogeneity, SpreadChangesOutcome) {
  const auto homo = Scenario(hetero_config(0.0)).run();
  const auto hetero = Scenario(hetero_config(0.6)).run();
  EXPECT_NE(homo.events_dispatched, hetero.events_dispatched);
}

TEST(Heterogeneity, StrongSpreadCostsDeadlineSuccess) {
  // Count-based load views misjudge slow resources: success drops as
  // h grows (same expected capacity).  Allow slack for noise; direction
  // must hold between the extremes.
  const auto homo = Scenario(hetero_config(0.0)).run();
  const auto hetero = Scenario(hetero_config(0.8)).run();
  EXPECT_LT(hetero.jobs_succeeded, homo.jobs_succeeded);
}

TEST(Heterogeneity, RejectsOutOfRange) {
  grid::GridConfig config = hetero_config(0.0);
  config.heterogeneity = 0.95;
  EXPECT_THROW(Scenario(config).run(), std::invalid_argument);
  config.heterogeneity = -0.1;
  EXPECT_THROW(Scenario(config).run(), std::invalid_argument);
}

}  // namespace
}  // namespace scal
