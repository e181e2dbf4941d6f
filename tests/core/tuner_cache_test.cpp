// Determinism contract of the tuner's evaluation cache and session
// backend: the tune outcome and the anneal log — including the `cached`
// flags — must be byte-identical at any job count, and with the
// reusable-session backend vs the stateless runner.

#include <gtest/gtest.h>

#include <cmath>

#include "core/tuner.hpp"
#include "exec/thread_pool.hpp"
#include "obs/anneal_log.hpp"
#include "rms/session.hpp"

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

void expect_same_outcome(const TuneOutcome& a, const TuneOutcome& b) {
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.tuning.update_interval, b.tuning.update_interval);
  EXPECT_EQ(a.tuning.neighborhood_size, b.tuning.neighborhood_size);
  EXPECT_EQ(a.tuning.link_delay_scale, b.tuning.link_delay_scale);
  EXPECT_EQ(a.tuning.volunteer_interval, b.tuning.volunteer_interval);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_prior_hits, b.cache_prior_hits);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.result.G(), b.result.G());
  EXPECT_EQ(a.result.efficiency(), b.result.efficiency());
}

void expect_same_log(const obs::AnnealLog& a, const obs::AnnealLog& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const obs::AnnealRecord& ra = a.records()[i];
    const obs::AnnealRecord& rb = b.records()[i];
    EXPECT_EQ(ra.label, rb.label) << "row " << i;
    EXPECT_EQ(ra.chain, rb.chain) << "row " << i;
    EXPECT_EQ(ra.iteration, rb.iteration) << "row " << i;
    EXPECT_EQ(ra.temperature, rb.temperature) << "row " << i;
    EXPECT_EQ(ra.candidate_value, rb.candidate_value) << "row " << i;
    EXPECT_EQ(ra.current_value, rb.current_value) << "row " << i;
    EXPECT_EQ(ra.best_value, rb.best_value) << "row " << i;
    EXPECT_EQ(ra.accepted, rb.accepted) << "row " << i;
    EXPECT_EQ(ra.improved, rb.improved) << "row " << i;
    EXPECT_EQ(ra.cached, rb.cached) << "row " << i;
  }
}

TEST(TunerCache, SerialVsParallelBitIdentical) {
  const ScalingCase scase = ScalingCase::case1_network_size();
  obs::AnnealLog log_serial;
  obs::AnnealLog log_parallel;

  TunerConfig serial = base_tuner();
  serial.anneal_log = &log_serial;
  const TuneOutcome serial_outcome =
      tune_enablers(analytic_config(), scase, serial, fake_sim,
                    warm_tuning());

  exec::ThreadPool pool(3);
  TunerConfig parallel = base_tuner();
  parallel.anneal_log = &log_parallel;
  parallel.pool = &pool;
  const TuneOutcome parallel_outcome =
      tune_enablers(analytic_config(), scase, parallel, fake_sim,
                    warm_tuning());

  expect_same_outcome(serial_outcome, parallel_outcome);
  expect_same_log(log_serial, log_parallel);
}

TEST(TunerCache, ChainZeroStartIsACachedAnchorRepeat) {
  // Chain 0 starts at the better warm anchor, so its iteration-0
  // evaluation repeats an anchor key and must be flagged cached.
  const ScalingCase scase = ScalingCase::case1_network_size();
  obs::AnnealLog log;
  TunerConfig tuner = base_tuner();
  tuner.anneal_log = &log;
  tune_enablers(analytic_config(), scase, tuner, fake_sim, warm_tuning());

  bool found = false;
  for (const obs::AnnealRecord& rec : log.records()) {
    if (rec.temperature > 0.0 && rec.chain == 0 && rec.iteration == 0) {
      EXPECT_TRUE(rec.cached);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // The very first record (the warm anchor) is never a hit.
  EXPECT_FALSE(log.records().front().cached);
}

TEST(TunerCache, SharedCacheSecondTuneIsAllPriorHits) {
  const ScalingCase scase = ScalingCase::case1_network_size();
  EvalCache cache;
  TunerConfig tuner = base_tuner();
  tuner.cache = &cache;

  const TuneOutcome first =
      tune_enablers(analytic_config(), scase, tuner, fake_sim);
  EXPECT_EQ(first.cache_prior_hits, 0u);

  const TuneOutcome second =
      tune_enablers(analytic_config(), scase, tuner, fake_sim);
  // Identical tune against a warm cache: every evaluation is a hit, and
  // the unique keys among them are prior-epoch hits.
  EXPECT_EQ(second.cache_hits, second.evaluations);
  EXPECT_GT(second.cache_prior_hits, 0u);
  // The search result itself is untouched by the warm cache.
  EXPECT_EQ(first.objective, second.objective);
  EXPECT_EQ(first.tuning.update_interval, second.tuning.update_interval);
  EXPECT_EQ(first.evaluations, second.evaluations);
  EXPECT_EQ(first.result.G(), second.result.G());
}

TEST(TunerCache, SessionBackendMatchesStatelessRunner) {
  // Real simulations, small: the reusable-session backend (empty
  // runner) must reproduce the stateless per-evaluation build exactly.
  grid::GridConfig config;
  config.rms = grid::RmsKind::kLowest;
  config.topology.nodes = 60;
  config.cluster_size = 20;
  config.horizon = 150.0;
  config.workload.mean_interarrival = 1.0;
  config.seed = 42;

  const ScalingCase scase = ScalingCase::case1_network_size();
  TunerConfig tuner;
  tuner.e0 = 0.40;
  tuner.band = 0.05;
  tuner.evaluations = 6;
  tuner.restarts = 2;

  obs::AnnealLog log_stateless;
  obs::AnnealLog log_session;
  TunerConfig stateless = tuner;
  stateless.anneal_log = &log_stateless;
  const TuneOutcome via_runner = tune_enablers(
      config, scase, stateless, default_runner(), config.tuning);

  rms::SessionPool sessions;
  EvalCache cache;
  TunerConfig session_backed = tuner;
  session_backed.anneal_log = &log_session;
  session_backed.sessions = &sessions;
  session_backed.cache = &cache;
  const TuneOutcome via_sessions =
      tune_enablers(config, scase, session_backed, {}, config.tuning);

  expect_same_outcome(via_runner, via_sessions);
  expect_same_log(log_stateless, log_session);

  // A second session-backed tune over the warm pool and cache changes
  // nothing but the hit statistics.
  const TuneOutcome again =
      tune_enablers(config, scase, session_backed, {}, config.tuning);
  EXPECT_EQ(again.objective, via_sessions.objective);
  EXPECT_EQ(again.cache_hits, again.evaluations);
}

}  // namespace
}  // namespace scal::core
