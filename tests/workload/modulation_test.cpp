#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "workload/generator.hpp"
#include "support/draw_jobs.hpp"

namespace scal::workload {
namespace {

WorkloadConfig modulated_config() {
  WorkloadConfig config;
  config.mean_interarrival = 2.0;
  config.clusters = 8;
  config.diurnal_amplitude = 0.8;
  config.diurnal_period = 1000.0;
  return config;
}

TEST(DiurnalModulation, PeakTroughContrast) {
  WorkloadGenerator gen(modulated_config(),
                        util::RandomStream(42, "mod"));
  const auto jobs = test::jobs_before(gen, 20000.0);
  ASSERT_GT(jobs.size(), 2000u);
  // Count arrivals in the peak quarter (t mod P in [P/8, 3P/8]) vs the
  // trough quarter ([5P/8, 7P/8]) of each period.
  std::size_t peak = 0, trough = 0;
  for (const Job& j : jobs) {
    const double phase = std::fmod(j.arrival, 1000.0) / 1000.0;
    if (phase >= 0.125 && phase < 0.375) ++peak;
    if (phase >= 0.625 && phase < 0.875) ++trough;
  }
  // With amplitude 0.8 the expected ratio is ~ (1+0.72)/(1-0.72) ~ 6.
  EXPECT_GT(static_cast<double>(peak) / static_cast<double>(trough), 3.0);
}

TEST(DiurnalModulation, MeanRatePreserved) {
  WorkloadGenerator gen(modulated_config(),
                        util::RandomStream(7, "mod"));
  const auto jobs = test::jobs_before(gen, 40000.0);
  // Long-run mean interarrival should still be ~ the configured mean
  // (the sin term integrates to zero over whole periods).
  const double mean = 40000.0 / static_cast<double>(jobs.size());
  EXPECT_NEAR(mean, 2.0, 0.15);
}

TEST(DiurnalModulation, ArrivalsStrictlyIncreasing) {
  WorkloadGenerator gen(modulated_config(),
                        util::RandomStream(9, "mod"));
  double prev = -1.0;
  for (int i = 0; i < 2000; ++i) {
    const Job j = gen.next();
    EXPECT_GT(j.arrival, prev);
    prev = j.arrival;
  }
}

TEST(DiurnalModulation, RejectsBadParameters) {
  WorkloadConfig config = modulated_config();
  config.diurnal_amplitude = 1.0;  // must be < 1
  EXPECT_THROW(WorkloadGenerator(config, util::RandomStream(1, "m")),
               std::invalid_argument);
  config = modulated_config();
  config.diurnal_period = 0.0;
  EXPECT_THROW(WorkloadGenerator(config, util::RandomStream(1, "m")),
               std::invalid_argument);
  // NaN fails the range check instead of silently disabling the wave.
  config = modulated_config();
  config.diurnal_amplitude = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(WorkloadGenerator(config, util::RandomStream(1, "m")),
               std::invalid_argument);
  config = modulated_config();
  config.diurnal_period = std::numeric_limits<double>::infinity();
  EXPECT_THROW(WorkloadGenerator(config, util::RandomStream(1, "m")),
               std::invalid_argument);
}

TEST(HotspotOrigin, SkewConcentratesOnClusterZero) {
  WorkloadConfig config;
  config.mean_interarrival = 1.0;
  config.clusters = 10;
  config.origin_hotspot_weight = 0.5;
  WorkloadGenerator gen(config, util::RandomStream(11, "hot"));
  std::size_t at_zero = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (gen.next().origin_cluster == 0) ++at_zero;
  }
  // P(cluster 0) = 0.5 + 0.5 * (1/10) = 0.55.
  EXPECT_NEAR(static_cast<double>(at_zero) / n, 0.55, 0.02);
}

TEST(HotspotOrigin, ZeroWeightIsUniform) {
  WorkloadConfig config;
  config.mean_interarrival = 1.0;
  config.clusters = 4;
  WorkloadGenerator gen(config, util::RandomStream(12, "hot"));
  std::vector<int> counts(4, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[gen.next().origin_cluster];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.25, 0.02);
  }
}

TEST(HotspotOrigin, RejectsBadWeight) {
  WorkloadConfig config;
  config.origin_hotspot_weight = 1.5;
  EXPECT_THROW(WorkloadGenerator(config, util::RandomStream(1, "h")),
               std::invalid_argument);
}

}  // namespace
}  // namespace scal::workload
