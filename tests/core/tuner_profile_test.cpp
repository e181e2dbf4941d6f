// Determinism contract of the tuner's phase profiling: the profiled
// "tuner.evaluate" call counts are logical evaluations (cache hits
// included), so they are a pure function of the search trajectory —
// bit-identical serial vs parallel.

#include <gtest/gtest.h>

#include <cmath>

#include "core/tuner.hpp"
#include "exec/thread_pool.hpp"
#include "obs/phase_profiler.hpp"

namespace scal::core {
namespace {

/// Analytic fake grid (same shape as tuner_test.cpp): G is minimized at
/// tau ~= 25.8 inside the efficiency band.
grid::SimulationResult fake_sim(const grid::GridConfig& config) {
  const double tau = config.tuning.update_interval;
  grid::SimulationResult r;
  r.G_scheduler = 100.0 + 2000.0 / tau + 3.0 * tau;
  const double e = 0.60 - 0.004 * std::abs(tau - 20.0);
  r.F = 1000.0;
  r.H_control = r.F / e - r.F - r.G_scheduler;
  return r;
}

TunerConfig base_tuner() {
  TunerConfig t;
  t.e0 = 0.58;
  t.band = 0.02;
  t.evaluations = 24;
  t.restarts = 3;
  return t;
}

grid::GridConfig analytic_config() {
  grid::GridConfig config;
  config.topology.nodes = 100;
  return config;
}

grid::Tuning warm_tuning() {
  grid::Tuning warm;
  warm.update_interval = 24.0;
  warm.neighborhood_size = 3;
  warm.link_delay_scale = 1.0;
  return warm;
}

std::uint64_t evaluate_calls(const obs::PhaseProfiler& profiler) {
  for (const auto& phase : profiler.phases()) {
    if (phase.name == "tuner.evaluate") return phase.calls;
  }
  return 0;
}

TEST(TunerProfile, CountsLogicalEvaluationsIncludingCacheHits) {
  obs::PhaseProfiler profiler(/*enabled=*/true);
  TunerConfig tuner = base_tuner();
  tuner.profiler = &profiler;
  const ScalingCase scase = ScalingCase::case1_network_size();
  // The warm anchor guarantees at least one repeated key, so the search
  // sees cache hits (tuner_cache_test.cpp, ChainZeroStart...).
  const TuneOutcome outcome =
      tune_enablers(analytic_config(), scase, tuner, fake_sim,
                    warm_tuning());

  // Every logical evaluation is timed, hit or miss, so the profiled
  // count equals the outcome's evaluation count.
  EXPECT_EQ(evaluate_calls(profiler), outcome.evaluations);
  EXPECT_GT(outcome.cache_hits, 0u);
}

TEST(TunerProfile, SerialVsParallelCountsBitIdentical) {
  const ScalingCase scase = ScalingCase::case1_network_size();

  obs::PhaseProfiler serial_profiler(/*enabled=*/true);
  TunerConfig serial = base_tuner();
  serial.profiler = &serial_profiler;
  const TuneOutcome serial_outcome =
      tune_enablers(analytic_config(), scase, serial, fake_sim);

  exec::ThreadPool pool(3);
  obs::PhaseProfiler parallel_profiler(/*enabled=*/true);
  TunerConfig parallel = base_tuner();
  parallel.profiler = &parallel_profiler;
  parallel.pool = &pool;
  const TuneOutcome parallel_outcome =
      tune_enablers(analytic_config(), scase, parallel, fake_sim);

  EXPECT_EQ(serial_outcome.evaluations, parallel_outcome.evaluations);
  EXPECT_EQ(serial_profiler.counts_json(), parallel_profiler.counts_json());
}

TEST(TunerProfile, SuccessiveTunesAccumulateIntoOneProfiler) {
  obs::PhaseProfiler profiler(/*enabled=*/true);
  TunerConfig tuner = base_tuner();
  tuner.profiler = &profiler;
  const ScalingCase scase = ScalingCase::case1_network_size();

  const TuneOutcome first =
      tune_enablers(analytic_config(), scase, tuner, fake_sim);
  const TuneOutcome second =
      tune_enablers(analytic_config(), scase, tuner, fake_sim);

  EXPECT_EQ(evaluate_calls(profiler),
            first.evaluations + second.evaluations);
}

TEST(TunerProfile, NullProfilerLeavesOutcomeUntouched) {
  const ScalingCase scase = ScalingCase::case1_network_size();

  TunerConfig plain = base_tuner();
  const TuneOutcome without =
      tune_enablers(analytic_config(), scase, plain, fake_sim);

  obs::PhaseProfiler profiler(/*enabled=*/true);
  TunerConfig profiled = base_tuner();
  profiled.profiler = &profiler;
  const TuneOutcome with =
      tune_enablers(analytic_config(), scase, profiled, fake_sim);

  EXPECT_EQ(without.objective, with.objective);
  EXPECT_EQ(without.evaluations, with.evaluations);
  EXPECT_EQ(without.tuning.update_interval, with.tuning.update_interval);
  EXPECT_EQ(without.result.G(), with.result.G());
}

}  // namespace
}  // namespace scal::core
