// Golden tests for GridSystem::reset(): rewinding a built system to new
// tuning and re-running must be byte-identical to constructing a fresh
// system from the target config — the reusable-simulation-state contract
// the enabler tuner's session backend relies on.

#include "grid/system.hpp"

#include <gtest/gtest.h>

#include "grid/digest.hpp"
#include "obs/telemetry.hpp"
#include "rms/factory.hpp"
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

GridConfig faulty_config() {
  GridConfig config = small_config(RmsKind::kSenderInitiated);
  config.faults = fault::FaultPlan::parse(
      "churn:mtbf=150,mttr=20;net:drop=0.05,delayp=0.1,delaym=2");
  return config;
}

SimulationResult run_fresh(const GridConfig& config) {
  GridSystem system(config, rms::scheduler_factory(config.rms));
  return system.run();
}

TEST(GridSystemReset, ResetRerunMatchesFreshBuild) {
  const GridConfig base = small_config();
  GridConfig retuned = base;
  retuned.tuning.update_interval = 35.0;
  retuned.tuning.neighborhood_size = 2;
  retuned.tuning.link_delay_scale = 1.5;

  GridSystem system(base, rms::scheduler_factory(base.rms));
  system.run();
  ASSERT_TRUE(system.reset_compatible(retuned));
  system.reset(retuned);
  test::expect_same_result(system.run(), run_fresh(retuned),
                           {test::kFromCache});
}

TEST(GridSystemReset, SameTuningResetReplaysRun) {
  const GridConfig config = small_config();
  GridSystem system(config, rms::scheduler_factory(config.rms));
  const SimulationResult first = system.run();
  system.reset(config);
  test::expect_same_result(system.run(), first);
}

TEST(GridSystemReset, ResetRerunMatchesFreshBuildWithFaults) {
  const GridConfig base = faulty_config();
  GridConfig retuned = base;
  retuned.tuning.update_interval = 12.0;
  retuned.tuning.link_delay_scale = 0.8;

  GridSystem system(base, rms::scheduler_factory(base.rms));
  const SimulationResult warm = system.run();
  EXPECT_GT(warm.resource_crashes, 0u);
  system.reset(retuned);
  const SimulationResult reset_run = system.run();
  test::expect_same_result(reset_run, run_fresh(retuned), {test::kFromCache});
  // The fault machinery must be genuinely live after the reset too.
  EXPECT_GT(reset_run.resource_crashes, 0u);
  EXPECT_GT(reset_run.messages_dropped, 0u);
}

TEST(GridSystemReset, RepeatedResetCyclesStayIdentical) {
  const GridConfig base = small_config(RmsKind::kReserve);
  GridConfig other = base;
  other.tuning.update_interval = 28.0;

  GridSystem system(base, rms::scheduler_factory(base.rms));
  const SimulationResult base_fresh = run_fresh(base);
  const SimulationResult other_fresh = run_fresh(other);
  test::expect_same_result(system.run(), base_fresh, {test::kFromCache});
  for (int cycle = 0; cycle < 3; ++cycle) {
    system.reset(other);
    test::expect_same_result(system.run(), other_fresh, {test::kFromCache});
    system.reset(base);
    test::expect_same_result(system.run(), base_fresh, {test::kFromCache});
  }
}

TEST(GridSystemReset, StructuralChangesAreIncompatible) {
  const GridConfig base = small_config();
  GridSystem system(base, rms::scheduler_factory(base.rms));

  GridConfig bigger = base;
  bigger.topology.nodes = 100;
  EXPECT_FALSE(system.reset_compatible(bigger));
  EXPECT_THROW(system.reset(bigger), std::logic_error);

  GridConfig other_rms = base;
  other_rms.rms = RmsKind::kCentral;
  EXPECT_FALSE(system.reset_compatible(other_rms));

  GridConfig other_seed = base;
  other_seed.seed = 43;
  EXPECT_FALSE(system.reset_compatible(other_seed));

  GridConfig other_faults = base;
  other_faults.faults = fault::FaultPlan::parse("churn:mtbf=100,mttr=10");
  EXPECT_FALSE(system.reset_compatible(other_faults));

  GridConfig tuned = base;
  tuned.tuning.update_interval = 33.0;
  EXPECT_TRUE(system.reset_compatible(tuned));
}

TEST(GridSystemReset, TelemetryDisablesReset) {
  const GridConfig base = small_config();
  GridSystem system(base, rms::scheduler_factory(base.rms));
  GridConfig instrumented = base;
  obs::TelemetryConfig tc;
  obs::Telemetry telemetry(tc);
  instrumented.telemetry = &telemetry;
  EXPECT_FALSE(system.reset_compatible(instrumented));
}

TEST(ConfigDigest, TrackedFieldsMoveTheDigest) {
  const GridConfig base = small_config();
  const auto d0 = config_digest(base);

  GridConfig tuned = base;
  tuned.tuning.update_interval = 33.0;
  EXPECT_NE(config_digest(tuned), d0);
  // Excluding tuning folds tuned and base together — the reset contract.
  EXPECT_EQ(config_digest(tuned, /*include_tuning=*/false),
            config_digest(base, /*include_tuning=*/false));

  GridConfig seeded = base;
  seeded.seed = 7;
  EXPECT_NE(config_digest(seeded, false), config_digest(base, false));

  GridConfig loaded = base;
  loaded.workload.mean_interarrival = 0.9;
  EXPECT_NE(config_digest(loaded, false), config_digest(base, false));

  GridConfig robust = base;
  robust.faults.robustness.retry_budget = 5;
  // Robustness knobs are hashed even while no fault class is enabled
  // (to_spec would omit them) so a digest match always means "same run".
  EXPECT_NE(config_digest(robust, false), config_digest(base, false));
}

}  // namespace
}  // namespace scal::grid
