// The distribution probes (job wait/response/slowdown histograms,
// scheduler queue depth at decision points, estimator staleness) must be
// purely observational: running with --metrics on may not change a
// single bit of the measured quantities, and the histograms themselves
// must be bit-identical between repeated instrumented runs.

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <iterator>
#include <string>

#include "obs/telemetry.hpp"
#include "rms/scenario.hpp"
#include "support/result_equal.hpp"

namespace scal::grid {
namespace {

GridConfig base_config(RmsKind rms) {
  GridConfig config;
  config.rms = rms;
  config.topology.nodes = 80;
  config.cluster_size = 20;
  config.horizon = 300.0;
  config.workload.mean_interarrival = 0.8;
  config.seed = 7;
  return config;
}

obs::TelemetryConfig metrics_config() {
  obs::TelemetryConfig tc;
  tc.metrics = true;
  return tc;
}

class MetricsProbes : public ::testing::TestWithParam<RmsKind> {};

TEST_P(MetricsProbes, MetricsOnVersusOffIsBitIdentical) {
  const SimulationResult plain = Scenario(base_config(GetParam())).run();

  obs::Telemetry telemetry(metrics_config());
  GridConfig instrumented = base_config(GetParam());
  instrumented.telemetry = &telemetry;
  const SimulationResult probed = Scenario(instrumented).run();

  test::expect_same_result(plain, probed, {test::kFromCache});
}

TEST_P(MetricsProbes, HistogramsArePopulatedAndConsistent) {
  obs::Telemetry telemetry(metrics_config());
  GridConfig config = base_config(GetParam());
  config.telemetry = &telemetry;
  const SimulationResult result = Scenario(config).run();

  obs::HistogramRegistry& h = telemetry.histograms();
  const obs::Histogram& wait = h.histogram("job_wait");
  const obs::Histogram& response = h.histogram("job_response");
  const obs::Histogram& slowdown = h.histogram("job_slowdown");
  const obs::Histogram& queue = h.histogram("sched_queue_depth");
  const obs::Histogram& staleness = h.histogram("status_staleness");

  // One wait/response sample per completed job.
  EXPECT_EQ(response.count(), result.jobs_completed);
  EXPECT_EQ(wait.count(), result.jobs_completed);
  // Response = wait + service time, so response dominates wait and both
  // moment sets are internally consistent.
  EXPECT_GE(response.min(), wait.min());
  EXPECT_GE(response.sum(), wait.sum());
  EXPECT_GE(response.mean(), 0.0);
  EXPECT_GE(wait.min(), 0.0);
  // Slowdown = response / service >= 1 for every job.
  EXPECT_GT(slowdown.count(), 0u);
  EXPECT_GE(slowdown.min(), 1.0);
  // Every routed job passed a scheduler decision point and consumed a
  // status snapshot with a non-negative sim-time age.
  EXPECT_GT(queue.count(), 0u);
  EXPECT_GE(queue.min(), 0.0);
  EXPECT_GT(staleness.count(), 0u);
  EXPECT_GE(staleness.min(), 0.0);

  // The histogram mean matches the exact counter-based mean bit-for-bit
  // only up to summation order, so compare loosely.
  EXPECT_NEAR(response.mean(), result.mean_response,
              1e-9 * (1.0 + result.mean_response));
}

TEST_P(MetricsProbes, TwoInstrumentedRunsAgreeBitExactly) {
  obs::Telemetry t1(metrics_config());
  GridConfig c1 = base_config(GetParam());
  c1.telemetry = &t1;
  const SimulationResult r1 = Scenario(c1).run();

  obs::Telemetry t2(metrics_config());
  GridConfig c2 = base_config(GetParam());
  c2.telemetry = &t2;
  const SimulationResult r2 = Scenario(c2).run();

  test::expect_same_result(r1, r2, {test::kFromCache});
  EXPECT_EQ(t1.histograms().to_json(), t2.histograms().to_json());
  EXPECT_EQ(t1.profiler().counts_json(), t2.profiler().counts_json());
}

TEST_P(MetricsProbes, ProfilerCountsTrackTheRun) {
  obs::Telemetry telemetry(metrics_config());
  GridConfig config = base_config(GetParam());
  config.telemetry = &telemetry;
  const SimulationResult result = Scenario(config).run();

  bool saw_run = false;
  bool saw_decision = false;
  for (const auto& phase : telemetry.profiler().phases()) {
    if (phase.name == "sim.run") {
      saw_run = true;
      EXPECT_EQ(phase.calls, 1u);
      EXPECT_GE(phase.total_ns, phase.self_ns);
    }
    if (phase.name == "sched.decision") {
      saw_decision = true;
      EXPECT_GT(phase.calls, 0u);
    }
  }
  EXPECT_TRUE(saw_run);
  EXPECT_TRUE(saw_decision);
  EXPECT_GT(result.jobs_completed, 0u);
}

TEST(MetricsProbes, ManifestCarriesMetricsBlockOnlyWhenEnabled) {
  auto exported_manifest = [](const obs::TelemetryConfig& tc) {
    obs::Telemetry telemetry(tc);
    GridConfig config = base_config(RmsKind::kLowest);
    config.telemetry = &telemetry;
    Scenario(config).run();
    EXPECT_TRUE(telemetry.export_all());
    std::ifstream in(tc.manifest_path);
    std::string json((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return json;
  };

  // Metrics off: the exported manifest has no "metrics" key, keeping
  // golden manifests byte-identical to the seed.
  obs::TelemetryConfig off;
  off.manifest_path = ::testing::TempDir() + "probes_off.jsonl";
  off.label = "probes_off";
  EXPECT_EQ(exported_manifest(off).find("\"metrics\""), std::string::npos);

  obs::TelemetryConfig on;
  on.manifest_path = ::testing::TempDir() + "probes_on.jsonl";
  on.label = "probes_on";
  on.metrics = true;
  const std::string json = exported_manifest(on);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"job_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Policies, MetricsProbes,
                         ::testing::Values(RmsKind::kLowest,
                                           RmsKind::kCentral,
                                           RmsKind::kSymmetric),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace scal::grid
