// GridSystem-level contracts of the aggregation control plane:
//
//  * Degenerate bypass: control_plane=true with fan-out 1 / batch 1 /
//    flush 0 is bit-identical to control_plane=false — aggregator
//    entities exist but the status path takes the exact legacy sends.
//  * Aggregation on: tree counters populate, the tree's work is charged
//    to G, job accounting stays conserved.
//  * Observability: the ctrl histograms agree with the manifest
//    counters and are purely observational.

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "grid/system.hpp"
#include "grid/telemetry.hpp"
#include "obs/telemetry.hpp"
#include "rms/scenario.hpp"
#include "support/result_equal.hpp"

namespace scal::grid {
namespace {

GridConfig base_config(RmsKind rms = RmsKind::kSenderInitiated) {
  GridConfig config;
  config.rms = rms;
  config.topology.nodes = 80;
  config.cluster_size = 20;
  config.horizon = 400.0;
  config.workload.mean_interarrival = 1.0;
  config.seed = 42;
  return config;
}

GridConfig aggregating_config(RmsKind rms = RmsKind::kSenderInitiated) {
  GridConfig config = base_config(rms);
  config.control_plane = true;
  config.tuning.agg_fanout = 2;
  config.tuning.agg_batch = 8;
  config.tuning.agg_flush = 6.0;
  return config;
}

/// Degenerate knobs still build the forest, and ctrl_tree_depth reports
/// it, but the status path bypasses the trees.
constexpr test::Skip kBypassedDepth{"ctrl_tree_depth",
                                    "the bypassed forest is still built"};

class ControlPlane : public ::testing::TestWithParam<RmsKind> {};

TEST_P(ControlPlane, DegenerateKnobsAreBitIdenticalToOff) {
  GridConfig off = base_config(GetParam());
  const SimulationResult plain = Scenario(off).run();

  GridConfig degenerate = base_config(GetParam());
  degenerate.control_plane = true;  // knobs stay at fan-out 1/batch 1/flush 0
  ASSERT_TRUE(degenerate.tuning.aggregation_degenerate());
  const SimulationResult bypassed = Scenario(degenerate).run();

  test::expect_same_result(plain, bypassed,
                           {kBypassedDepth, test::kFromCache});
  EXPECT_EQ(bypassed.G_aggregator, 0.0);
  EXPECT_EQ(bypassed.ctrl_updates_in, 0u);
}

TEST_P(ControlPlane, AggregationPopulatesTreeCountersAndChargesG) {
  const SimulationResult r = Scenario(aggregating_config(GetParam())).run();
  EXPECT_GT(r.ctrl_updates_in, 0u);
  EXPECT_GT(r.ctrl_batches, 0u);
  EXPECT_GE(r.ctrl_tree_depth, 1u);
  EXPECT_GT(r.G_aggregator, 0.0);
  EXPECT_LE(r.ctrl_updates_coalesced, r.ctrl_updates_in);
  EXPECT_GE(r.ctrl_coalescing_ratio(), 0.0);
  EXPECT_LT(r.ctrl_coalescing_ratio(), 1.0);
  // Job accounting stays conserved under aggregation.
  EXPECT_GT(r.jobs_arrived, 0u);
  EXPECT_EQ(r.jobs_local + r.jobs_remote, r.jobs_arrived);
  EXPECT_EQ(r.jobs_completed + r.jobs_unfinished, r.jobs_arrived);
}

TEST_P(ControlPlane, AggregationRunsAreReproducible) {
  const SimulationResult a = Scenario(aggregating_config(GetParam())).run();
  const SimulationResult b = Scenario(aggregating_config(GetParam())).run();
  test::expect_same_result(a, b, {test::kFromCache});
}

INSTANTIATE_TEST_SUITE_P(Policies, ControlPlane,
                         ::testing::Values(RmsKind::kCentral, RmsKind::kLowest,
                                           RmsKind::kSenderInitiated,
                                           RmsKind::kSymmetric,
                                           RmsKind::kAuction),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           std::erase_if(name, [](char c) {
                             return !std::isalnum(
                                 static_cast<unsigned char>(c));
                           });
                           return name;
                         });

TEST(ControlPlaneObs, HistogramsMatchManifestCounters) {
  obs::TelemetryConfig tc;
  tc.metrics = true;
  obs::Telemetry telemetry(tc);
  GridConfig config = aggregating_config();
  config.telemetry = &telemetry;
  const SimulationResult result = Scenario(config).run();

  const obs::Histogram& coalescing =
      telemetry.histograms().histogram("ctrl_coalescing");
  const obs::Histogram& hop_delay =
      telemetry.histograms().histogram("ctrl_hop_delay");
  // One coalescing sample per forwarded batch; one hop-delay sample per
  // forwarded update.  Updates still buffered at the horizon have not
  // forwarded, so the hop count is bounded by in - coalesced.
  EXPECT_EQ(coalescing.count(), result.ctrl_batches);
  EXPECT_LE(hop_delay.count(),
            result.ctrl_updates_in - result.ctrl_updates_coalesced);
  EXPECT_GT(hop_delay.count(), 0u);
  // The histogram's total absorbed mass is the coalesced counter, less
  // whatever is still sitting in buffers at the horizon.
  EXPECT_LE(static_cast<std::uint64_t>(coalescing.sum()),
            result.ctrl_updates_coalesced);

  obs::RunManifest manifest;
  fill_manifest(manifest, config, result);
  const std::string json = manifest.to_json();
  EXPECT_NE(json.find("\"control_plane\":true"), std::string::npos);
  const auto has = [&json](const std::string& key, std::uint64_t value) {
    return json.find("\"" + key + "\":" + std::to_string(value)) !=
           std::string::npos;
  };
  EXPECT_TRUE(has("updates_in", result.ctrl_updates_in));
  EXPECT_TRUE(has("batches", result.ctrl_batches));
  EXPECT_TRUE(has("tree_depth", result.ctrl_tree_depth));
  EXPECT_NE(json.find("\"ctrl\""), std::string::npos);
  EXPECT_NE(json.find("\"agg_fanout\""), std::string::npos);

  // Control-plane-off manifests keep the legacy layout.
  obs::RunManifest off;
  fill_manifest(off, base_config(), Scenario(base_config()).run());
  EXPECT_EQ(off.to_json().find("\"ctrl\""), std::string::npos);
  EXPECT_EQ(off.to_json().find("\"agg_fanout\""), std::string::npos);
}

TEST(ControlPlaneObs, MetricsInstrumentationIsObservational) {
  const SimulationResult plain = Scenario(aggregating_config()).run();

  obs::TelemetryConfig tc;
  tc.metrics = true;
  obs::Telemetry telemetry(tc);
  GridConfig instrumented = aggregating_config();
  instrumented.telemetry = &telemetry;
  const SimulationResult probed = Scenario(instrumented).run();

  test::expect_same_result(plain, probed, {test::kFromCache});
}

TEST(ControlPlaneFaults, AggregatorBlackoutsFlushAndRecover) {
  GridConfig config = aggregating_config();
  config.faults = fault::FaultPlan::parse("agg-blackout:period=80,length=10");
  const SimulationResult r = Scenario(config).run();
  EXPECT_GT(r.aggregator_blackouts, 0u);
  // Traffic keeps flowing through relays; accounting stays conserved.
  EXPECT_GT(r.ctrl_batches, 0u);
  EXPECT_EQ(r.jobs_local + r.jobs_remote, r.jobs_arrived);
  EXPECT_EQ(r.jobs_completed + r.jobs_unfinished, r.jobs_arrived);

  // Same plan, different cadence => different outcome (the windows are
  // actually doing something).
  GridConfig other = aggregating_config();
  other.faults = fault::FaultPlan::parse("agg-blackout:period=40,length=20");
  const SimulationResult r2 = Scenario(other).run();
  EXPECT_GT(r2.aggregator_blackouts, r.aggregator_blackouts);
}

}  // namespace
}  // namespace scal::grid
