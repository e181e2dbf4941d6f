// Determinism under faults: the fault subsystem must preserve the two
// reproducibility contracts the measurement procedure rests on —
//   (1) zero faults is byte-identical to a build without the subsystem
//       (no extra RNG draws, events, or decisions), and
//   (2) with faults on, sweeps are bit-identical at any --jobs N,
//       down to the exported CSV bytes and the manifest JSON.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/procedure.hpp"
#include "core/report.hpp"
#include "exec/thread_pool.hpp"
#include "grid/telemetry.hpp"
#include "rms/scenario.hpp"

namespace scal {
namespace {

grid::GridConfig small_config(grid::RmsKind kind) {
  grid::GridConfig config;
  config.rms = kind;
  config.topology.nodes = 100;
  config.horizon = 400.0;
  config.workload.mean_interarrival = 1.0;
  config.seed = 20260705;
  return config;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(FaultDeterminism, ZeroFaultsEqualsSeedBehavior) {
  // A default plan and a plan parsed from "" must both be invisible:
  // same events, same work, same RNG consumption as the seed build
  // (golden_master_test pins the absolute numbers; this pins the
  // equivalence of the two "off" spellings).
  grid::GridConfig off = small_config(grid::RmsKind::kLowest);
  grid::GridConfig parsed = small_config(grid::RmsKind::kLowest);
  parsed.faults = fault::FaultPlan::parse("");
  const auto a = Scenario(off).run();
  const auto b = Scenario(parsed).run();
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.jobs_succeeded, b.jobs_succeeded);
  EXPECT_EQ(a.network_messages, b.network_messages);
  EXPECT_DOUBLE_EQ(a.G(), b.G());
  EXPECT_DOUBLE_EQ(a.F, b.F);
  // No fault bookkeeping leaks into a clean run.
  EXPECT_EQ(a.resource_crashes, 0u);
  EXPECT_EQ(a.jobs_killed, 0u);
  EXPECT_DOUBLE_EQ(a.availability, 1.0);
}

TEST(FaultDeterminism, FaultyRunsAreReproducible) {
  grid::GridConfig config = small_config(grid::RmsKind::kSymmetric);
  config.faults =
      fault::FaultPlan::parse("churn:mtbf=150,mttr=25;net:drop=0.03");
  const auto a = Scenario(config).run();
  const auto b = Scenario(config).run();
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.resource_crashes, b.resource_crashes);
  EXPECT_EQ(a.jobs_killed, b.jobs_killed);
  EXPECT_EQ(a.jobs_requeued, b.jobs_requeued);
  EXPECT_DOUBLE_EQ(a.G(), b.G());
  EXPECT_DOUBLE_EQ(a.resource_downtime, b.resource_downtime);
}

TEST(FaultDeterminism, FaultScheduleIsolatedFromPolicyDraws) {
  // Fault timing comes from its own seed tree: two policies under the
  // same plan see the identical churn schedule.
  grid::GridConfig a_cfg = small_config(grid::RmsKind::kCentral);
  grid::GridConfig b_cfg = small_config(grid::RmsKind::kLowest);
  a_cfg.faults = b_cfg.faults =
      fault::FaultPlan::parse("churn:mtbf=150,mttr=25");
  const auto a = Scenario(a_cfg).run();
  const auto b = Scenario(b_cfg).run();
  EXPECT_EQ(a.resource_crashes, b.resource_crashes);
  EXPECT_EQ(a.resource_recoveries, b.resource_recoveries);
  EXPECT_DOUBLE_EQ(a.resource_downtime, b.resource_downtime);
}

TEST(FaultDeterminism, SweepCsvAndManifestByteIdenticalAcrossJobs) {
  grid::GridConfig base = small_config(grid::RmsKind::kLowest);
  base.faults = fault::FaultPlan::parse("churn:mtbf=200,mttr=25");

  core::ProcedureConfig procedure;
  procedure.scase = core::ScalingCase::case1_network_size();
  procedure.scale_factors = {1, 2};
  procedure.tuner.evaluations = 3;
  procedure.tuner.e0 = 0.8;
  procedure.tuner.band = 0.1;

  const std::vector<grid::RmsKind> kinds{grid::RmsKind::kLowest,
                                         grid::RmsKind::kCentral};

  const auto sweep = [&](exec::ThreadPool* pool, const std::string& tag) {
    core::ProcedureConfig p = procedure;
    p.pool = pool;
    const auto results = core::measure_all(base, kinds, p);
    const std::string csv =
        ::testing::TempDir() + "/scal_fault_jobs_" + tag + ".csv";
    core::write_case_csv(results, csv);
    // Manifest for the last point of the first kind, with the identity
    // fields (timestamps, wall clock) pinned so only simulation-derived
    // content is compared.
    obs::RunManifest manifest;
    manifest.label = "determinism";
    manifest.started_at = "pinned";
    manifest.git_version = "pinned";
    const core::ScalePoint& last = results.front().points.back();
    grid::GridConfig scaled =
        core::apply_scale(base, p.scase, last.k);
    scaled.rms = results.front().rms;
    scaled.tuning = last.tuning;
    grid::fill_manifest(manifest, scaled, last.sim);
    const std::string bytes = slurp(csv);
    std::remove(csv.c_str());
    return std::make_pair(bytes, manifest.to_json());
  };

  const auto serial = sweep(nullptr, "j1");
  exec::ThreadPool pool(3);  // --jobs 4
  const auto parallel = sweep(&pool, "j4");

  ASSERT_FALSE(serial.first.empty());
  EXPECT_EQ(serial.first, parallel.first);    // CSV bytes
  EXPECT_EQ(serial.second, parallel.second);  // manifest JSON
  // The manifest really carries the fault block.
  EXPECT_NE(serial.second.find("\"faults\""), std::string::npos);
  EXPECT_NE(serial.second.find("churn:mtbf=200"), std::string::npos);
  EXPECT_NE(serial.second.find("efficiency_avail"), std::string::npos);
}

}  // namespace
}  // namespace scal
