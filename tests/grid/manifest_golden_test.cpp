// Byte-exact pin of whole run manifests.  Each case runs a small LOWEST
// grid, renders its manifest with the identity fields pinned, and
// compares RunManifest::to_json() against one line of
// tests/data/manifest_golden.jsonl.  Across the cases every conditional
// block (faults, workload, memory, ctrl), the nested
// aggregator_blackouts counter and the two cache counters gated on
// "> 0" each appear at least once and are absent at least once; the
// last record also pins the blocks obs owns (anneal, reuse,
// peak_rss_bytes, tuner).
//
// The golden lines are the byte-identity contract for manifests: a line
// changes only with a deliberate, documented format change.

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "grid/config.hpp"
#include "grid/telemetry.hpp"
#include "obs/manifest.hpp"
#include "rms/scenario.hpp"
#include "workload/arrival_cache.hpp"
#include "workload/modulator.hpp"

namespace scal::grid {
namespace {

struct GoldenCase {
  std::string name;
  std::function<void(GridConfig&)> shape;
  /// Arrival-cache byte budget for the run (0 = unbounded).
  std::size_t cache_budget = 0;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

GridConfig base_config() {
  GridConfig config;
  config.rms = RmsKind::kLowest;
  config.topology.nodes = 80;
  config.horizon = 300.0;
  config.seed = 42;
  return config;
}

void aggregate(GridConfig& config) {
  config.control_plane = true;
  config.tuning.agg_fanout = 2;
  config.tuning.agg_batch = 4;
  config.tuning.agg_flush = 5.0;
}

void diurnal(GridConfig& config) {
  config.workload_source.modulators =
      workload::parse_modulators("diurnal:amplitude=0.5,period=150");
}

const std::vector<GoldenCase>& golden_cases() {
  static const std::vector<GoldenCase> cases = {
      {"default", [](GridConfig&) {}},
      {"control_plane", aggregate},
      {"streaming",
       [](GridConfig& c) { c.result_mode = ResultMode::kStreaming; }},
      // A one-byte budget evicts the stream the run just stored, so the
      // workload block carries arrival_cache_evictions.
      {"diurnal", diurnal, 1},
      // A streaming miss is not stored: arrival_cache_store_skips.
      {"diurnal_streaming",
       [](GridConfig& c) {
         diurnal(c);
         c.result_mode = ResultMode::kStreaming;
       }},
      {"faults",
       [](GridConfig& c) {
         c.faults = fault::FaultPlan::parse(
             "churn:mtbf=200,mttr=25;net:drop=0.02");
       }},
      {"agg_blackout",
       [](GridConfig& c) {
         aggregate(c);
         c.faults =
             fault::FaultPlan::parse("agg-blackout:period=60,length=10");
       }},
  };
  return cases;
}

obs::RunManifest pinned_manifest(const std::string& label) {
  obs::RunManifest manifest;
  manifest.label = "golden/" + label;
  manifest.started_at = "2026-01-01T00:00:00Z";
  manifest.git_version = "pinned";
  manifest.wall_seconds = 0.5;
  return manifest;
}

/// Run one case on a cleared arrival cache and render its manifest.
obs::RunManifest run_case(const GoldenCase& c) {
  workload::ArrivalCache& cache = workload::ArrivalCache::instance();
  const std::size_t budget = cache.max_bytes();
  cache.clear();
  cache.set_max_bytes(c.cache_budget);
  GridConfig config = base_config();
  c.shape(config);
  const SimulationResult result = Scenario(config).run();
  cache.set_max_bytes(budget);
  obs::RunManifest manifest = pinned_manifest(c.name);
  fill_manifest(manifest, config, result);
  return manifest;
}

/// The golden line whose label is "golden/<name>"; empty when absent.
std::string golden_line(const std::string& name) {
  std::ifstream in(std::string(SCAL_SOURCE_DIR) +
                   "/tests/data/manifest_golden.jsonl");
  const std::string tag = "{\"label\":\"golden/" + name + "\",";
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(tag, 0) == 0) return line;
  }
  return {};
}

void expect_golden(const obs::RunManifest& manifest, const std::string& name) {
  const std::string actual = manifest.to_json();
  const std::string expected = golden_line(name);
  EXPECT_EQ(actual, expected) << "manifest differs from the golden line\n"
                              << "actual: " << actual;
}

class ManifestGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(ManifestGolden, MatchesGoldenBytes) {
  expect_golden(run_case(GetParam()), GetParam().name);
}

INSTANTIATE_TEST_SUITE_P(
    Runs, ManifestGolden, ::testing::ValuesIn(golden_cases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return info.param.name;
    });

TEST(ManifestGolden, ObsOwnedBlocks) {
  obs::RunManifest manifest = run_case(golden_cases().front());
  manifest.label = "golden/obs_blocks";
  manifest.jobs = 3;
  manifest.anneal_iterations = 24;
  manifest.anneal_accepted = 10;
  manifest.anneal_improving = 4;
  manifest.anneal_best_objective = 199.125;
  manifest.tuner_evaluations = 40;
  manifest.tuner_cache_hits = 13;
  manifest.reuse_enabled = true;
  manifest.reuse_tree_shares = 5;
  manifest.reuse_tree_publishes = 2;
  manifest.reuse_inflight_waits = 1;
  manifest.reuse_disk_hits = 7;
  manifest.reuse_disk_entries = 9;
  manifest.peak_rss_bytes = 123456789;
  expect_golden(manifest, "obs_blocks");
}

}  // namespace
}  // namespace scal::grid
