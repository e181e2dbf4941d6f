// The subsystem's non-negotiable invariant: --jobs 1 and --jobs N are
// bit-identical, for every parallel construct in the stack.  These
// tests run each construct serially and on a 3-worker pool (4 lanes)
// and compare results field by field with exact equality.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/procedure.hpp"
#include "core/sensitivity.hpp"
#include "exec/thread_pool.hpp"
#include "obs/anneal_log.hpp"
#include "obs/telemetry.hpp"
#include "util/rng.hpp"
#include "support/result_equal.hpp"

namespace scal::exec {
namespace {

/// Deterministic pseudo-simulation whose result depends on the seed,
/// the scale (node count), and the tuned update interval — enough
/// structure for the tuner and the replication stats to be non-trivial.
grid::SimulationResult fake_runner(const grid::GridConfig& config) {
  const double nodes = static_cast<double>(config.topology.nodes);
  const double tau = config.tuning.update_interval;
  std::uint64_t state = config.seed;
  const double noise =
      static_cast<double>(util::splitmix64(state) >> 11) * 0x1.0p-53;
  grid::SimulationResult r;
  r.F = 10.0 * nodes * (1.0 + 0.05 * noise);
  r.G_scheduler = 0.05 * nodes + 400.0 / tau + 2.0 * tau + noise;
  r.H_control = 8.0 * nodes;
  r.throughput = nodes / (1.0 + noise);
  r.mean_response = 3.0 + noise;
  r.jobs_arrived = static_cast<std::uint64_t>(nodes);
  r.jobs_completed = r.jobs_arrived;
  r.jobs_succeeded = r.jobs_arrived;
  return r;
}

core::ProcedureConfig fast_procedure() {
  core::ProcedureConfig p;
  p.scase = core::ScalingCase::case1_network_size();
  p.scale_factors = {1, 2, 3};
  p.tuner.evaluations = 24;
  p.tuner.restarts = 3;
  p.warm_evaluations = 8;
  grid::GridConfig c;
  c.topology.nodes = 100;
  p.tuner.e0 = fake_runner(c).efficiency();
  p.tuner.band = 0.05;
  return p;
}

grid::GridConfig base_config() {
  grid::GridConfig config;
  config.topology.nodes = 100;
  config.seed = 42;
  return config;
}

void expect_identical(const core::CaseResult& a, const core::CaseResult& b) {
  EXPECT_EQ(a.rms, b.rms);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].k, b.points[i].k);
    EXPECT_EQ(a.points[i].feasible, b.points[i].feasible);
    EXPECT_EQ(a.points[i].tuning.update_interval,
              b.points[i].tuning.update_interval);
    EXPECT_EQ(a.points[i].tuning.neighborhood_size,
              b.points[i].tuning.neighborhood_size);
    EXPECT_EQ(a.points[i].tuning.link_delay_scale,
              b.points[i].tuning.link_delay_scale);
    EXPECT_EQ(a.points[i].tuning.volunteer_interval,
              b.points[i].tuning.volunteer_interval);
    test::expect_same_result(a.points[i].sim, b.points[i].sim);
  }
}

TEST(Determinism, MeasureAllMatchesSerialBitForBit) {
  const std::vector<grid::RmsKind> kinds = {
      grid::RmsKind::kCentral, grid::RmsKind::kLowest,
      grid::RmsKind::kRandom};

  core::ProcedureConfig serial_p = fast_procedure();
  obs::AnnealLog serial_log;
  serial_p.tuner.anneal_log = &serial_log;
  const auto serial =
      core::measure_all(base_config(), kinds, serial_p, fake_runner);

  ThreadPool pool(3);
  core::ProcedureConfig pooled_p = fast_procedure();
  obs::AnnealLog pooled_log;
  pooled_p.tuner.anneal_log = &pooled_log;
  pooled_p.pool = &pool;
  const auto pooled =
      core::measure_all(base_config(), kinds, pooled_p, fake_runner);

  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], pooled[i]);
  }

  // The shared anneal log too: same rows, same order.
  ASSERT_EQ(serial_log.size(), pooled_log.size());
  for (std::size_t i = 0; i < serial_log.size(); ++i) {
    const obs::AnnealRecord& a = serial_log.records()[i];
    const obs::AnnealRecord& b = pooled_log.records()[i];
    EXPECT_EQ(a.label, b.label) << "row " << i;
    EXPECT_EQ(a.chain, b.chain) << "row " << i;
    EXPECT_EQ(a.iteration, b.iteration) << "row " << i;
    EXPECT_EQ(a.candidate_value, b.candidate_value) << "row " << i;
    EXPECT_EQ(a.current_value, b.current_value) << "row " << i;
    EXPECT_EQ(a.best_value, b.best_value) << "row " << i;
    EXPECT_EQ(a.accepted, b.accepted) << "row " << i;
  }
}

TEST(Determinism, MeasureAllIsStableAcrossRepeatedPoolRuns) {
  // Rules out schedule-dependent results hiding behind a lucky match:
  // two pool runs (fresh pools, different interleavings) must agree.
  const std::vector<grid::RmsKind> kinds = {grid::RmsKind::kCentral,
                                            grid::RmsKind::kLowest};
  std::vector<std::vector<core::CaseResult>> runs;
  for (int run = 0; run < 2; ++run) {
    ThreadPool pool(3);
    core::ProcedureConfig p = fast_procedure();
    p.pool = &pool;
    runs.push_back(core::measure_all(base_config(), kinds, p, fake_runner));
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    expect_identical(runs[0][i], runs[1][i]);
  }
}

TEST(Determinism, ReplicateMatchesSerialBitForBit) {
  const grid::GridConfig config = base_config();
  const auto serial = core::replicate(config, 8, /*base_seed=*/100,
                                      fake_runner);
  ThreadPool pool(3);
  const auto pooled = core::replicate(config, 8, /*base_seed=*/100,
                                      fake_runner, &pool);
  EXPECT_EQ(serial.seeds, pooled.seeds);
  EXPECT_EQ(serial.G.mean(), pooled.G.mean());
  EXPECT_EQ(serial.G.stddev(), pooled.G.stddev());
  EXPECT_EQ(serial.F.mean(), pooled.F.mean());
  EXPECT_EQ(serial.H.mean(), pooled.H.mean());
  EXPECT_EQ(serial.efficiency.mean(), pooled.efficiency.mean());
  EXPECT_EQ(serial.efficiency.stddev(), pooled.efficiency.stddev());
  EXPECT_EQ(serial.throughput.mean(), pooled.throughput.mean());
  EXPECT_EQ(serial.mean_response.mean(), pooled.mean_response.mean());
}

TEST(Determinism, ReplicateRealSimulationMatchesSerial) {
  // Small end-to-end check through the real simulator: the pool must
  // not perturb Scenario::run either (each run has its own System).
  grid::GridConfig config;
  config.topology.nodes = 40;
  config.horizon = 120.0;
  config.workload.mean_interarrival = 2.0;
  const auto serial = core::replicate(config, 3, /*base_seed=*/7);
  ThreadPool pool(3);
  const auto pooled = core::replicate(config, 3, /*base_seed=*/7,
                                      core::default_runner(), &pool);
  EXPECT_EQ(serial.G.mean(), pooled.G.mean());
  EXPECT_EQ(serial.G.stddev(), pooled.G.stddev());
  EXPECT_EQ(serial.efficiency.mean(), pooled.efficiency.mean());
  EXPECT_EQ(serial.mean_response.mean(), pooled.mean_response.mean());
}

TEST(Determinism, AggregationOnReplicateMatchesSerial) {
  // The aggregation control plane adds timers and batch sends to the
  // event stream; none of it may depend on worker interleaving.
  grid::GridConfig config;
  config.topology.nodes = 40;
  config.horizon = 120.0;
  config.workload.mean_interarrival = 2.0;
  config.control_plane = true;
  config.tuning.agg_fanout = 2;
  config.tuning.agg_batch = 6;
  config.tuning.agg_flush = 5.0;
  const auto serial = core::replicate(config, 3, /*base_seed=*/7);
  ThreadPool pool(3);
  const auto pooled = core::replicate(config, 3, /*base_seed=*/7,
                                      core::default_runner(), &pool);
  EXPECT_EQ(serial.G.mean(), pooled.G.mean());
  EXPECT_EQ(serial.G.stddev(), pooled.G.stddev());
  EXPECT_EQ(serial.efficiency.mean(), pooled.efficiency.mean());
  EXPECT_EQ(serial.mean_response.mean(), pooled.mean_response.mean());
}

TEST(Determinism, ReplicateRejectsTelemetryWithPool) {
  grid::GridConfig config = base_config();
  obs::Telemetry telemetry{{}};
  config.telemetry = &telemetry;
  ThreadPool pool(2);
  EXPECT_THROW(core::replicate(config, 4, 1, fake_runner, &pool),
               std::invalid_argument);
}

}  // namespace
}  // namespace scal::exec
