#include <gtest/gtest.h>

#include <cstdio>

#include "exec/thread_pool.hpp"
#include "rms/scenario.hpp"
#include "workload/source.hpp"
#include "workload/trace.hpp"
#include "support/result_equal.hpp"

namespace scal::workload {
namespace {

grid::GridConfig small_grid() {
  grid::GridConfig config;
  config.topology.nodes = 60;
  config.horizon = 300.0;
  config.workload.mean_interarrival = 2.0;
  config.seed = 11;
  return config;
}

// The save_trace / trace-source round trip must be lossless at the
// simulation level: a generated-then-saved workload replayed through
// the trace source yields the same run, event for event.
TEST(TraceRoundTrip, ReplayReproducesIdenticalRun) {
  grid::GridConfig config = small_grid();
  config.job_log = true;

  auto direct_system = Scenario(config).build();
  const WorkloadConfig wl = [&] {
    WorkloadConfig w = config.workload;
    w.clusters =
        static_cast<std::uint32_t>(direct_system->cluster_count());
    return w;
  }();
  const grid::SimulationResult direct = direct_system->run();

  // Save exactly the stream the run consumed (same spec, seed, horizon).
  const std::vector<Job> jobs =
      collect(*make_source(SourceSpec{}, wl, config.seed, config.horizon));
  ASSERT_EQ(jobs.size(), direct.jobs_arrived);
  const std::string path =
      ::testing::TempDir() + "/scal_roundtrip_workload.csv";
  save_trace_file(jobs, path);

  grid::GridConfig replay_config = small_grid();
  replay_config.job_log = true;
  replay_config.workload_source = SourceSpec::parse("trace:" + path);
  auto replay_system = Scenario(replay_config).build();
  const grid::SimulationResult replay = replay_system->run();

  test::expect_same_result(direct, replay);
  const auto& direct_log = direct_system->job_log().records();
  const auto& replay_log = replay_system->job_log().records();
  ASSERT_EQ(replay_log.size(), direct_log.size());
  for (std::size_t i = 0; i < direct_log.size(); ++i) {
    EXPECT_EQ(replay_log[i].job, direct_log[i].job);
    EXPECT_EQ(replay_log[i].event, direct_log[i].event);
    EXPECT_DOUBLE_EQ(replay_log[i].at, direct_log[i].at);
    EXPECT_EQ(replay_log[i].place, direct_log[i].place);
  }
  std::remove(path.c_str());
}

// Modulated runs honor the determinism contract: bit-identical results
// whether the per-RMS sweep runs serial or on a worker pool.
TEST(ModulatedDeterminism, RunKindsSerialMatchesPool) {
  grid::GridConfig config = small_grid();
  config.workload_source.modulators = parse_modulators(
      "diurnal:amplitude=0.6,period=120;burst:every=60,width=10");
  const Scenario base{config};
  const std::vector<grid::RmsKind> kinds = {
      grid::RmsKind::kCentral, grid::RmsKind::kLowest,
      grid::RmsKind::kReserve, grid::RmsKind::kSymmetric};
  const auto serial = Scenario::run_kinds(base, kinds, nullptr);
  exec::ThreadPool pool(3);
  const auto pooled = Scenario::run_kinds(base, kinds, &pool);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    test::expect_same_result(serial[i], pooled[i], {test::kFromCache});
  }
}

// Same contract for an SWF replay: the parsed stream is a pure function
// of (file, mapping), so per-RMS sweeps are pool-invariant too.
TEST(ModulatedDeterminism, SwfRunsAreSeedStable) {
  // A small in-repo fixture keeps this hermetic.
  const std::string fixture =
      std::string(SCAL_SOURCE_DIR) + "/tests/data/sample_small.swf";
  grid::GridConfig config = small_grid();
  config.workload_source = SourceSpec::parse("swf:" + fixture + "@0.5");
  const Scenario base{config};
  const std::vector<grid::RmsKind> kinds = {grid::RmsKind::kCentral,
                                            grid::RmsKind::kLowest};
  const auto serial = Scenario::run_kinds(base, kinds, nullptr);
  exec::ThreadPool pool(2);
  const auto pooled = Scenario::run_kinds(base, kinds, &pool);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_GT(serial[i].jobs_arrived, 0u);
    test::expect_same_result(serial[i], pooled[i], {test::kFromCache});
  }
}

}  // namespace
}  // namespace scal::workload
