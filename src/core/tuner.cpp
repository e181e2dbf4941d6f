#include "core/tuner.hpp"

#include <cmath>
#include <limits>
#include <unordered_set>
#include <vector>

#include "grid/digest.hpp"
#include "obs/anneal_log.hpp"
#include "obs/phase_profiler.hpp"
#include "opt/annealing.hpp"
#include "rms/scenario.hpp"
#include "rms/session.hpp"

namespace scal::core {

SimRunner default_runner() {
  return [](const grid::GridConfig& config) {
    return Scenario(config).run();
  };
}

double penalized_objective(const grid::SimulationResult& result,
                           const TunerConfig& config) {
  const double e = result.efficiency();
  const double excess =
      std::max(0.0, std::abs(e - config.e0) - config.band) / config.band;
  const double g = result.G();
  return g * (1.0 + config.penalty_weight * excess * excess);
}

namespace {

/// Best-evaluation tracker.  The search runs one of these per annealing
/// chain (plus one for the warm-start anchor probes), so concurrent
/// chains never share mutable state; tune_enablers then reduces them in
/// slot order, which reproduces the historical serial bookkeeping
/// (anchors first, then chain 0, chain 1, ...) bit for bit.
struct EvalTrack {
  double value = std::numeric_limits<double>::infinity();
  grid::Tuning tuning;
  grid::SimulationResult result;
  std::size_t evaluations = 0;
  bool have = false;

  void consider(double candidate_value, const grid::Tuning& candidate_tuning,
                const grid::SimulationResult& candidate_result) {
    ++evaluations;
    if (!have || candidate_value < value) {
      have = true;
      value = candidate_value;
      tuning = candidate_tuning;
      result = candidate_result;
    }
  }
};

/// One evaluation's identity as recorded by its slot (anchors = slot 0,
/// chain c = slot 1 + c).  The `cached` flags and the hit statistics are
/// derived from these traces by a *serial replay* in slot order, not
/// from which thread physically reached the cache first — so they are
/// identical at any --jobs count.
struct TraceEntry {
  opt::EvalKey key;
  bool prior_epoch = false;  ///< key answered by an earlier tune's epoch
};

}  // namespace

TuneOutcome tune_enablers(const grid::GridConfig& config,
                          const ScalingCase& scase, const TunerConfig& tuner,
                          const SimRunner& runner,
                          const std::optional<grid::Tuning>& warm_start) {
  const opt::Space space = enabler_space(scase);

  // Track the best *simulation* alongside the best objective so the
  // outcome does not need a re-run at the optimum.  Slot 0 collects the
  // warm-start anchors; slot 1 + c belongs to chain c.
  std::vector<EvalTrack> tracks(1 + tuner.restarts);
  std::vector<std::vector<TraceEntry>> traces(1 + tuner.restarts);

  // The memoization table.  A private one still deduplicates repeated
  // points within this tune (annealing revisits clamped boundary points
  // constantly); a shared one additionally answers from earlier tunes.
  EvalCache local_cache;
  EvalCache& cache = tuner.cache != nullptr ? *tuner.cache : local_cache;
  cache.begin_epoch();

  // Reusable-session backend for the empty-runner sentinel.  Serial
  // searches funnel every evaluation through one session so the warm
  // site is never rebuilt; concurrent chains get one session per slot.
  rms::SessionPool local_sessions;
  rms::SessionPool& sessions =
      tuner.sessions != nullptr ? *tuner.sessions : local_sessions;
  const bool serial = tuner.pool == nullptr;

  // One profiler per slot (anchors + chains), same scheme as the
  // EvalTrack slots: concurrent chains never share one, and the
  // slot-order merge afterwards is the deterministic reduction.  Every
  // slot registers the phase first, so id 0 is "tuner.evaluate" in all
  // of them.
  std::vector<obs::PhaseProfiler> slot_profilers;
  obs::PhaseId eval_phase = 0;
  if (tuner.profiler != nullptr) {
    slot_profilers.reserve(1 + tuner.restarts);
    for (std::size_t s = 0; s < 1 + tuner.restarts; ++s) {
      slot_profilers.emplace_back(/*enabled=*/true);
      eval_phase = slot_profilers.back().phase("tuner.evaluate");
    }
  }

  auto make_objective = [&](std::size_t slot) {
    // Sessions are resolved here, on the calling thread: anneal builds
    // every chain objective up front, so SessionPool growth never races.
    rms::SimulationSession* session =
        runner ? nullptr : &sessions.slot(serial ? 0 : slot);
    return [&config, &scase, &tuner, &runner, &cache, &tracks, &traces,
            &slot_profilers, eval_phase, session,
            slot](const opt::Point& point) {
      // The scope covers the whole logical evaluation, cache hit or
      // not, so the recorded call count is a pure function of the
      // search trajectory (only the ns vary with memoization).
      obs::PhaseProfiler::Scope eval_scope(
          slot_profilers.empty() ? nullptr : &slot_profilers[slot],
          eval_phase);
      const grid::Tuning tuning =
          tuning_from_point(scase, config.tuning, point);
      grid::GridConfig candidate = config;
      candidate.tuning = tuning;
      // Search evaluations stay silent: only the caller's own instrumented
      // run records traces/probes, never the tuner's probing.
      candidate.telemetry = nullptr;
      opt::EvalKey key{grid::config_digest(candidate), point};
      grid::SimulationResult result;
      // Future-based path: a concurrent chain that reaches the same key
      // while the first evaluator is mid-run blocks on its result instead
      // of recomputing.  The claim carries the epoch stamp the eventual
      // fulfill would have, so `prior_epoch` — the only fact the trace
      // records — is unchanged by the dedup.
      EvalCache::Acquired acquired = cache.acquire(key);
      traces[slot].push_back(TraceEntry{key, acquired.prior_epoch});
      if (acquired.value) {
        result = *std::move(acquired.value);
      } else {
        try {
          result = runner ? runner(candidate) : session->run(candidate);
        } catch (...) {
          cache.abandon(key);  // let a waiter re-claim
          throw;
        }
        cache.fulfill(key, result);
      }
      // The penalty is recomputed at hit time: a shared cache may span
      // tunes with different e0/band parameters.
      const double value = penalized_objective(result, tuner);
      tracks[slot].consider(value, tuning, result);
      return value;
    };
  };

  // Serial-replay seen-set for the anneal log's `cached` flags.  Anchors
  // feed it as they are logged (they run serially, first); the observer
  // then consumes chain traces in the same chain-major order anneal
  // replays steps in, on the calling thread.
  std::unordered_set<opt::EvalKey, opt::EvalKeyHash> seen;

  opt::AnnealingConfig anneal_config;
  anneal_config.iterations = tuner.evaluations;
  anneal_config.restarts = tuner.restarts;
  // Small budgets want a near-greedy schedule: the G landscape over the
  // enablers is mostly monotone with a band constraint, so wide
  // exploration at T ~ 1 wastes evaluations random-walking.
  anneal_config.initial_temperature = 0.35;
  anneal_config.final_temperature = 0.005;
  anneal_config.pool = tuner.pool;
  anneal_config.chain_objective = [&](std::size_t chain) {
    return make_objective(1 + chain);
  };
  if (tuner.anneal_log != nullptr) {
    // The observer runs on the caller's thread in chain-major order
    // after the chains finished, so the log rows stay well-formed and
    // identically ordered at any job count.
    anneal_config.observer = [&tuner, &traces, &seen](
                                 const opt::AnnealStep& step) {
      obs::AnnealRecord rec;
      rec.label = tuner.anneal_label;
      rec.chain = step.chain;
      rec.iteration = step.iteration;
      rec.temperature = step.temperature;
      rec.candidate_value = step.candidate_value;
      rec.current_value = step.current_value;
      rec.best_value = step.best_value;
      rec.accepted = step.accepted;
      rec.improved = step.improved;
      // Chains make exactly one objective call per iteration, so the
      // trace row for this step is traces[1 + chain][iteration].
      const TraceEntry& trace = traces[1 + step.chain][step.iteration];
      rec.cached = trace.prior_epoch || !seen.insert(trace.key).second;
      tuner.anneal_log->add(std::move(rec));
    };
  }

  // Warm-start anchor probes run serially before the chains and are
  // telemetry-visible (temperature 0, outside any chain's numbering).
  opt::Objective anchor_objective = make_objective(0);
  auto log_anchor = [&](double value) {
    if (tuner.anneal_log == nullptr) return;
    const TraceEntry& trace = traces[0].back();
    obs::AnnealRecord rec;
    rec.label = tuner.anneal_label;
    rec.candidate_value = value;
    rec.current_value = value;
    rec.best_value = tracks[0].value;
    rec.accepted = true;
    rec.cached = trace.prior_epoch || !seen.insert(trace.key).second;
    tuner.anneal_log->add(std::move(rec));
  };
  if (warm_start) {
    // A warm-start chain can drift into a region that stops being
    // band-feasible as k grows; anchoring each point on the untouched
    // default tuning as well costs one evaluation and lets the search
    // recover.  Start the chain from the better of the two anchors.
    const opt::Point warm_point =
        space.clamp(point_from_tuning(scase, *warm_start));
    const opt::Point default_point =
        space.clamp(point_from_tuning(scase, config.tuning));
    const double warm_value = anchor_objective(warm_point);
    log_anchor(warm_value);
    double default_value = warm_value;
    if (default_point != warm_point) {
      default_value = anchor_objective(default_point);
      log_anchor(default_value);
    }
    anneal_config.initial_point =
        default_value < warm_value ? default_point : warm_point;
    if (anneal_config.iterations > 2) anneal_config.iterations -= 2;
  }
  util::RandomStream search_rng(tuner.seed, "enabler-tuner");
  opt::anneal(space, opt::Objective{}, anneal_config, search_rng);

  // Slot-order profiler reduction, mirroring the EvalTrack one below.
  if (tuner.profiler != nullptr) {
    for (const obs::PhaseProfiler& slot_profiler : slot_profilers) {
      tuner.profiler->merge(slot_profiler);
    }
  }

  // Deterministic reduction in slot order (anchors, then chains).
  TuneOutcome outcome;
  double best_value = std::numeric_limits<double>::infinity();
  bool have = false;
  for (const EvalTrack& track : tracks) {
    outcome.evaluations += track.evaluations;
    if (track.have && (!have || track.value < best_value)) {
      have = true;
      best_value = track.value;
      outcome.tuning = track.tuning;
      outcome.result = track.result;
      outcome.objective = track.value;
    }
  }

  // Hit statistics by the same serial replay, from a fresh seen-set so
  // they do not depend on whether an anneal log was attached.
  std::unordered_set<opt::EvalKey, opt::EvalKeyHash> replay;
  for (const std::vector<TraceEntry>& slot_trace : traces) {
    for (const TraceEntry& trace : slot_trace) {
      if (!replay.insert(trace.key).second) {
        ++outcome.cache_hits;
      } else if (trace.prior_epoch) {
        ++outcome.cache_hits;
        ++outcome.cache_prior_hits;
      }
    }
  }

  outcome.feasible =
      std::abs(outcome.result.efficiency() - tuner.e0) <= tuner.band + 1e-12;
  return outcome;
}

}  // namespace scal::core
