#include "obs/probe.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "rms/scenario.hpp"

namespace scal::obs {
namespace {

grid::GridConfig probed_config() {
  grid::GridConfig config;
  config.rms = grid::RmsKind::kLowest;
  config.topology.nodes = 80;
  config.cluster_size = 20;
  config.horizon = 300.0;
  config.workload.mean_interarrival = 1.0;
  config.seed = 42;
  return config;
}

Telemetry probe_telemetry(double interval) {
  TelemetryConfig tc;
  tc.probe_path = ::testing::TempDir() + "probe_test.csv";
  tc.probe_interval = interval;
  return Telemetry(tc);
}

TEST(TimeSeriesProbe, WindowedEfficiencyFromCumulativeRows) {
  TimeSeriesProbe probe(10.0);
  ProbeSample a;
  a.at = 0.0;
  probe.add(a);
  ProbeSample b;
  b.at = 10.0;
  b.F = 6.0;
  b.G = 3.0;
  b.H = 1.0;
  probe.add(b);
  ProbeSample c;
  c.at = 20.0;
  c.F = 10.0;  // dF = 4
  c.G = 8.0;   // dG = 5
  c.H = 2.0;   // dH = 1
  probe.add(c);

  ASSERT_EQ(probe.samples().size(), 3u);
  EXPECT_DOUBLE_EQ(probe.samples()[1].efficiency, 0.6);
  EXPECT_DOUBLE_EQ(probe.samples()[1].efficiency_windowed, 0.6);
  EXPECT_DOUBLE_EQ(probe.samples()[2].efficiency, 0.5);
  EXPECT_DOUBLE_EQ(probe.samples()[2].efficiency_windowed, 0.4);
}

TEST(ProbeExport, SamplingCadenceTracksSimulatorClock) {
  const double interval = 50.0;
  Telemetry telemetry = probe_telemetry(interval);
  grid::GridConfig config = probed_config();
  config.telemetry = &telemetry;
  const grid::SimulationResult result = Scenario(config).run();

  const auto& samples = telemetry.probe()->samples();
  // Ticks at 0, 50, ..., 250, plus the final row at the horizon.
  ASSERT_EQ(samples.size(), 7u);
  for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(samples[i].at, static_cast<double>(i) * interval);
  }
  EXPECT_DOUBLE_EQ(samples.back().at, config.horizon);

  // Cumulative terms are monotone non-decreasing.
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].F, samples[i - 1].F);
    EXPECT_GE(samples[i].G, samples[i - 1].G);
    EXPECT_GE(samples[i].jobs_completed, samples[i - 1].jobs_completed);
  }
  EXPECT_EQ(samples.back().jobs_completed, result.jobs_completed);
}

TEST(ProbeExport, FinalRowEqualsResultScalarsExactly) {
  Telemetry telemetry = probe_telemetry(75.0);
  grid::GridConfig config = probed_config();
  config.telemetry = &telemetry;
  const grid::SimulationResult result = Scenario(config).run();

  const ProbeSample& last = telemetry.probe()->samples().back();
  // Bit-exact equality, not near-equality: the final row is copied from
  // the assembled result, never recomputed.
  EXPECT_EQ(last.F, result.F);
  EXPECT_EQ(last.G, result.G());
  EXPECT_EQ(last.H, result.H());
  EXPECT_EQ(last.efficiency, result.efficiency());
  EXPECT_EQ(last.jobs_arrived, result.jobs_arrived);
  EXPECT_EQ(last.jobs_completed, result.jobs_completed);
}

TEST(ProbeExport, CsvRoundTripsFinalRowDigits) {
  Telemetry telemetry = probe_telemetry(75.0);
  grid::GridConfig config = probed_config();
  config.telemetry = &telemetry;
  const grid::SimulationResult result = Scenario(config).run();

  std::ostringstream os;
  telemetry.probe()->write_csv(os);
  const std::string csv = os.str();
  // Last non-empty line.
  std::vector<std::string> lines;
  std::istringstream is(csv);
  for (std::string line; std::getline(is, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 2u);
  const std::string& last = lines.back();
  std::vector<double> fields;
  std::istringstream row(last);
  for (std::string cell; std::getline(row, cell, ',');) {
    fields.push_back(std::strtod(cell.c_str(), nullptr));
  }
  // Columns: at,F,G,H,... (see TimeSeriesProbe::csv_header).
  ASSERT_GE(fields.size(), 4u);
  EXPECT_EQ(fields[0], config.horizon);
  EXPECT_EQ(fields[1], result.F);
  EXPECT_EQ(fields[2], result.G());
  EXPECT_EQ(fields[3], result.H());
}

TEST(ProbeExport, RejectsNonPositiveOrNonFiniteInterval) {
  for (const double interval :
       {0.0, -5.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(probe_telemetry(interval), std::invalid_argument)
        << interval;
  }
  // Without a path the probe is off and its interval unused.
  TelemetryConfig tc;
  tc.probe_interval = -5.0;
  EXPECT_EQ(Telemetry(tc).probe(), nullptr);
}

TEST(ProbeExport, IntervalIsBoundedByTheHorizon) {
  grid::GridConfig config = probed_config();
  config.horizon = 100.0;
  // 1e6 periods over the horizon: allowed.
  Telemetry fine = probe_telemetry(1e-4);
  config.telemetry = &fine;
  EXPECT_NO_THROW(config.validate());
  // 1e302 periods would never let the clock reach the horizon.
  Telemetry tiny = probe_telemetry(1e-300);
  config.telemetry = &tiny;
  try {
    config.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("probe_interval"), std::string::npos);
  }
}

}  // namespace
}  // namespace scal::obs
