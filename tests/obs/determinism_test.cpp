// Telemetry must be purely observational: attaching a fully loaded
// Telemetry handle (trace + probe + manifest) to a run may not change a
// single bit of the measured quantities.  The probe does schedule extra
// (read-only) kernel events, so events_dispatched is allowed to differ —
// everything the scalability analysis consumes is compared bit-exactly.

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "obs/telemetry.hpp"
#include "rms/scenario.hpp"
#include "support/result_equal.hpp"

namespace scal::obs {
namespace {

grid::GridConfig base_config(grid::RmsKind rms) {
  grid::GridConfig config;
  config.rms = rms;
  config.topology.nodes = 80;
  config.cluster_size = 20;
  config.horizon = 300.0;
  config.workload.mean_interarrival = 0.8;
  config.seed = 7;
  return config;
}

TelemetryConfig full_config(const std::string& stem) {
  TelemetryConfig tc;
  tc.trace_path = ::testing::TempDir() + stem + ".trace.json";
  tc.probe_path = ::testing::TempDir() + stem + ".csv";
  tc.probe_interval = 40.0;
  tc.manifest_path = ::testing::TempDir() + stem + ".jsonl";
  tc.label = stem;
  return tc;
}

class TelemetryDeterminism
    : public ::testing::TestWithParam<grid::RmsKind> {};

TEST_P(TelemetryDeterminism, OnVersusOffIsBitIdentical) {
  const grid::SimulationResult plain =
      Scenario(base_config(GetParam())).run();

  Telemetry telemetry(full_config("determinism_on"));
  grid::GridConfig instrumented = base_config(GetParam());
  instrumented.telemetry = &telemetry;
  const grid::SimulationResult traced = Scenario(instrumented).run();

  test::expect_same_result(
      plain, traced,
      {{"events_dispatched", "probe ticks are kernel events"},
       {"job_log_records", "tracing job spans switches the job log on"},
       test::kFromCache});
  EXPECT_GT(telemetry.trace().size(), 0u);
  EXPECT_FALSE(telemetry.probe()->empty());
}

TEST_P(TelemetryDeterminism, TwoInstrumentedRunsAgree) {
  Telemetry t1(full_config("determinism_a"));
  grid::GridConfig c1 = base_config(GetParam());
  c1.telemetry = &t1;
  const grid::SimulationResult r1 = Scenario(c1).run();

  Telemetry t2(full_config("determinism_b"));
  grid::GridConfig c2 = base_config(GetParam());
  c2.telemetry = &t2;
  const grid::SimulationResult r2 = Scenario(c2).run();

  test::expect_same_result(r1, r2, {test::kFromCache});
  EXPECT_EQ(t1.trace().size(), t2.trace().size());
  EXPECT_EQ(t1.probe()->samples().size(), t2.probe()->samples().size());
}

INSTANTIATE_TEST_SUITE_P(Policies, TelemetryDeterminism,
                         ::testing::Values(grid::RmsKind::kLowest,
                                           grid::RmsKind::kCentral,
                                           grid::RmsKind::kSymmetric),
                         [](const auto& info) {
                           std::string name = grid::to_string(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace scal::obs
