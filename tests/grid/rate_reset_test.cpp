// Rate-only reset compatibility: service-rate and interarrival deltas
// are re-applied by GridSystem::reset() instead of forcing a rebuild, so
// Case-2 style sweeps keep the warm topology/routing/cluster state.  The
// contract is the same as for tuning resets: reset(next) + run() must be
// bit-identical to a fresh build of next.

#include <gtest/gtest.h>

#include "grid/digest.hpp"
#include "grid/system.hpp"
#include "rms/factory.hpp"
#include "rms/session.hpp"
#include "support/result_equal.hpp"

namespace scal::grid {
namespace {

GridConfig small_config(RmsKind rms = RmsKind::kLowest) {
  GridConfig config;
  config.rms = rms;
  config.topology.nodes = 80;
  config.cluster_size = 20;
  config.horizon = 400.0;
  config.workload.mean_interarrival = 1.0;
  config.seed = 42;
  return config;
}

SimulationResult run_fresh(const GridConfig& config) {
  GridSystem system(config, rms::scheduler_factory(config.rms));
  return system.run();
}

TEST(RateReset, ServiceRateDeltaIsResetCompatible) {
  GridConfig base = small_config();
  GridConfig faster = base;
  faster.service_rate = base.service_rate * 2.0;

  GridSystem system(base, rms::scheduler_factory(base.rms));
  EXPECT_TRUE(system.reset_compatible(faster));
  system.run();
  system.reset(faster);
  test::expect_same_result(run_fresh(faster), system.run(), {test::kFromCache});
}

TEST(RateReset, ServiceRateResetRespectsHeterogeneity) {
  GridConfig base = small_config(RmsKind::kSenderInitiated);
  base.heterogeneity = 0.4;
  GridConfig faster = base;
  faster.service_rate = base.service_rate * 1.5;

  GridSystem system(base, rms::scheduler_factory(base.rms));
  system.run();
  ASSERT_TRUE(system.reset_compatible(faster));
  system.reset(faster);
  // The per-resource multipliers must be re-applied exactly as a fresh
  // build at the new base rate would draw them.
  test::expect_same_result(run_fresh(faster), system.run(), {test::kFromCache});
}

TEST(RateReset, InterarrivalDeltaRegeneratesArrivals) {
  GridConfig base = small_config();
  GridConfig loaded = base;
  loaded.workload.mean_interarrival = 0.5;

  GridSystem system(base, rms::scheduler_factory(base.rms));
  EXPECT_TRUE(system.reset_compatible(loaded));
  const SimulationResult first = system.run();
  system.reset(loaded);
  const SimulationResult warm = system.run();
  EXPECT_GT(warm.jobs_arrived, first.jobs_arrived);
  test::expect_same_result(run_fresh(loaded), warm, {test::kFromCache});
}

TEST(RateReset, CombinedRateAndTuningDelta) {
  GridConfig base = small_config(RmsKind::kSymmetric);
  GridConfig next = base;
  next.service_rate = base.service_rate * 3.0;
  next.workload.mean_interarrival = 0.4;
  next.tuning.update_interval = 37.0;

  GridSystem system(base, rms::scheduler_factory(base.rms));
  system.run();
  ASSERT_TRUE(system.reset_compatible(next));
  system.reset(next);
  test::expect_same_result(run_fresh(next), system.run(), {test::kFromCache});
}

TEST(RateReset, RoundTripBackToBaseReplaysExactly) {
  GridConfig base = small_config();
  GridConfig faster = base;
  faster.service_rate = base.service_rate * 2.0;

  GridSystem system(base, rms::scheduler_factory(base.rms));
  const SimulationResult first = system.run();
  system.reset(faster);
  system.run();
  system.reset(base);
  test::expect_same_result(first, system.run());
}

TEST(RateReset, StructuralDeltasStillRejected) {
  GridConfig base = small_config();
  GridSystem system(base, rms::scheduler_factory(base.rms));

  GridConfig other = base;
  other.cluster_size = 10;
  EXPECT_FALSE(system.reset_compatible(other));

  other = base;
  other.seed = 43;
  EXPECT_FALSE(system.reset_compatible(other));

  other = base;
  other.heterogeneity = 0.2;
  EXPECT_FALSE(system.reset_compatible(other));

  other = base;
  other.costs.job_control = 0.5;
  EXPECT_FALSE(system.reset_compatible(other));
}

TEST(RateReset, DigestSeparatesRateAndStructure) {
  GridConfig a = small_config();
  GridConfig b = a;
  b.service_rate = a.service_rate * 2.0;
  b.workload.mean_interarrival = 0.25;
  // Rates excluded: identical.  Rates included: distinct.
  EXPECT_EQ(config_digest(a, false, false), config_digest(b, false, false));
  EXPECT_NE(config_digest(a, false, true), config_digest(b, false, true));
  // Tuning stays orthogonal.
  b = a;
  b.tuning.agg_fanout = 3;
  EXPECT_EQ(config_digest(a, false, false), config_digest(b, false, false));
  EXPECT_NE(config_digest(a, true, true), config_digest(b, true, true));
}

TEST(RateReset, SessionReusesSystemAcrossRateSweep) {
  rms::SimulationSession session;
  GridConfig config = small_config();
  for (const double k : {1.0, 2.0, 4.0}) {
    GridConfig scaled = config;
    scaled.service_rate = config.service_rate * k;
    scaled.workload.mean_interarrival = config.workload.mean_interarrival / k;
    const SimulationResult warm = session.run(scaled);
    test::expect_same_result(run_fresh(scaled), warm, {test::kFromCache});
  }
  // The entire sweep reuses a single build — rate deltas never rebuild.
  EXPECT_EQ(session.rebuilds(), 1u);
}

}  // namespace
}  // namespace scal::grid
