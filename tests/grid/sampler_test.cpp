// The grid's state sampling: the time-series probe records true (not
// estimator-lagged) system state on a fixed sim-time cadence — pool
// utilization, the hottest cluster, resource load, and backlogs.

#include <gtest/gtest.h>

#include <vector>

#include "obs/telemetry.hpp"
#include "rms/scenario.hpp"

namespace scal::grid {
namespace {

GridConfig sampled_config(double ia = 1.0) {
  GridConfig config;
  config.rms = RmsKind::kLowest;
  config.topology.nodes = 80;
  config.horizon = 400.0;
  config.workload.mean_interarrival = ia;
  return config;
}

/// Run `config` with the probe every `interval` and return its rows.
std::vector<obs::ProbeSample> probe_samples(const GridConfig& config,
                                            double interval) {
  obs::TelemetryConfig tc;
  tc.probe_path = ::testing::TempDir() + "sampler_test.csv";
  tc.probe_interval = interval;
  obs::Telemetry telemetry(tc);
  Scenario(config).telemetry(&telemetry).run();
  return telemetry.probe()->samples();
}

TEST(StateSampler, SamplesOnCadence) {
  const auto samples = probe_samples(sampled_config(), 50.0);
  // t = 0, 50, ..., 400 inclusive.
  ASSERT_EQ(samples.size(), 9u);
  EXPECT_DOUBLE_EQ(samples.front().at, 0.0);
  EXPECT_DOUBLE_EQ(samples[1].at, 50.0);
  EXPECT_DOUBLE_EQ(samples.back().at, 400.0);
}

TEST(StateSampler, ValuesAreSane) {
  const auto samples = probe_samples(sampled_config(), 25.0);
  // First sample: empty system.
  EXPECT_DOUBLE_EQ(samples.front().pool_busy_fraction, 0.0);
  bool saw_busy = false;
  for (const obs::ProbeSample& s : samples) {
    EXPECT_GE(s.pool_busy_fraction, 0.0);
    EXPECT_LE(s.pool_busy_fraction, 1.0);
    EXPECT_GE(s.hottest_cluster_busy, s.pool_busy_fraction - 1e-12);
    EXPECT_GE(s.max_resource_load, s.mean_resource_load - 1e-12);
    saw_busy = saw_busy || s.pool_busy_fraction > 0.0;
  }
  EXPECT_TRUE(saw_busy);
}

TEST(StateSampler, OverloadShowsRisingBacklog) {
  const auto l = probe_samples(sampled_config(/*ia=*/4.0), 50.0);
  const auto h = probe_samples(sampled_config(/*ia=*/0.2), 50.0);
  EXPECT_GT(h.back().mean_resource_load, l.back().mean_resource_load);
  EXPECT_GT(h.back().pool_busy_fraction, 0.9);
}

}  // namespace
}  // namespace scal::grid
