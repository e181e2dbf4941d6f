#include "core/tuner.hpp"

#include <cmath>
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

/// One objective evaluation, as its slot recorded it.  The tune reports
/// only what a serial replay of these records derives, never which
/// thread physically reached the cache first, so its outcome, hit
/// statistics and anneal log are identical at any --jobs count.
struct Evaluation {
  opt::EvalKey key;
  bool claimed = false;  ///< this evaluation claimed the key and ran it
  double value = 0.0;    ///< penalized objective
  grid::Tuning tuning;
  grid::SimulationResult result;
};

}  // namespace

TuneOutcome tune_enablers(const grid::GridConfig& config,
                          const ScalingCase& scase, const TunerConfig& tuner,
                          const SimRunner& runner,
                          const std::optional<grid::Tuning>& warm_start) {
  const opt::Space space = enabler_space(scase);

  // Every evaluation's record, one list per slot: slot 0 collects the
  // warm-start anchors, slot 1 + c belongs to chain c, so concurrent
  // chains never share mutable state.
  std::vector<std::vector<Evaluation>> slots(1 + tuner.restarts);

  // The memoization table.  A private one still deduplicates repeated
  // points within this tune (annealing revisits clamped boundary points
  // constantly); a shared one additionally answers from earlier tunes.
  EvalCache local_cache;
  EvalCache& cache = tuner.cache != nullptr ? *tuner.cache : local_cache;

  // Reusable-session backend for the empty-runner sentinel.  Serial
  // searches funnel every evaluation through one session so the warm
  // site is never rebuilt; concurrent chains get one session per slot.
  rms::SessionPool local_sessions;
  rms::SessionPool& sessions =
      tuner.sessions != nullptr ? *tuner.sessions : local_sessions;
  const bool serial = tuner.pool == nullptr;

  // One profiler per slot, like the record lists: the slot-order merge
  // afterwards is the deterministic reduction.  Every slot registers the
  // phase first, so id 0 is "tuner.evaluate" in all of them.
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
    return [&config, &scase, &tuner, &runner, &cache, &slots,
            &slot_profilers, eval_phase, session,
            slot](const opt::Point& point) {
      // The scope covers the whole logical evaluation, cache hit or
      // not, so the recorded call count is a pure function of the
      // search trajectory (only the ns vary with memoization).
      obs::PhaseProfiler::Scope eval_scope(
          slot_profilers.empty() ? nullptr : &slot_profilers[slot],
          eval_phase);
      Evaluation& e = slots[slot].emplace_back();
      e.tuning = tuning_from_point(scase, config.tuning, point);
      grid::GridConfig candidate = config;
      candidate.tuning = e.tuning;
      // Search evaluations stay silent: only the caller's own instrumented
      // run records traces/probes, never the tuner's probing.
      candidate.telemetry = nullptr;
      e.key = opt::EvalKey{grid::config_digest(candidate), point};
      // Future-based path: a concurrent chain that reaches the same key
      // while the first evaluator is mid-run blocks on its result instead
      // of recomputing.  Which of them claims it is scheduling; that this
      // tune claimed it is not.
      if (std::optional<grid::SimulationResult> hit = cache.acquire(e.key)) {
        e.result = *std::move(hit);
      } else {
        e.claimed = true;
        try {
          e.result = runner ? runner(candidate) : session->run(candidate);
        } catch (...) {
          cache.abandon(e.key);  // let a waiter re-claim
          throw;
        }
        cache.fulfill(e.key, e.result);
      }
      // The penalty is recomputed at hit time: a shared cache may span
      // tunes with different e0/band parameters.
      e.value = penalized_objective(e.result, tuner);
      return e.value;
    };
  };

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

  // Warm-start anchor probes run serially before the chains.
  if (warm_start) {
    // A warm-start chain can drift into a region that stops being
    // band-feasible as k grows; anchoring each point on the untouched
    // default tuning as well costs one evaluation and lets the search
    // recover.  Start the chain from the better of the two anchors.
    const opt::Objective anchor_objective = make_objective(0);
    const opt::Point warm_point =
        space.clamp(point_from_tuning(scase, *warm_start));
    const opt::Point default_point =
        space.clamp(point_from_tuning(scase, config.tuning));
    const double warm_value = anchor_objective(warm_point);
    double default_value = warm_value;
    if (default_point != warm_point) {
      default_value = anchor_objective(default_point);
    }
    anneal_config.initial_point =
        default_value < warm_value ? default_point : warm_point;
    if (anneal_config.iterations > 2) anneal_config.iterations -= 2;
  }
  util::RandomStream search_rng(tuner.seed, "enabler-tuner");
  const opt::AnnealingResult search =
      opt::anneal(space, opt::Objective{}, anneal_config, search_rng);

  if (tuner.profiler != nullptr) {
    for (const obs::PhaseProfiler& slot_profiler : slot_profilers) {
      tuner.profiler->merge(slot_profiler);
    }
  }

  // A key no evaluation of this tune claimed was answered by an earlier
  // tune sharing the cache, or by the disk file.  (Two tunes never use
  // one cache at once, so no other tune can claim a key meanwhile.)
  std::unordered_set<opt::EvalKey, opt::EvalKeyHash> claimed;
  for (const std::vector<Evaluation>& slot : slots) {
    for (const Evaluation& e : slot) {
      if (e.claimed) claimed.insert(e.key);
    }
  }

  // The serial replay, in slot order (anchors, then chains by index).
  // An evaluation is a hit when its key came up earlier in this order or
  // this tune never claimed it; the best setting is the first minimum.
  // Chains make exactly one objective call per iteration, so their
  // evaluations map one to one onto the chain-major search.steps.
  TuneOutcome outcome;
  std::unordered_set<opt::EvalKey, opt::EvalKeyHash> seen;
  const Evaluation* best = nullptr;
  std::size_t step = 0;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    for (const Evaluation& e : slots[s]) {
      ++outcome.evaluations;
      const bool repeat = !seen.insert(e.key).second;
      const bool prior = claimed.count(e.key) == 0;
      const bool cached = repeat || prior;
      if (cached) ++outcome.cache_hits;
      if (!repeat && prior) ++outcome.cache_prior_hits;
      if (best == nullptr || e.value < best->value) best = &e;
      if (tuner.anneal_log == nullptr) continue;

      obs::AnnealRecord rec;
      rec.label = tuner.anneal_label;
      if (s == 0) {
        // Anchors log with temperature 0, outside any chain's numbering;
        // their best column covers the anchors so far.
        rec.candidate_value = e.value;
        rec.current_value = e.value;
        rec.best_value = best->value;
        rec.accepted = true;
      } else {
        const opt::AnnealStep& st = search.steps[step++];
        rec.chain = st.chain;
        rec.iteration = st.iteration;
        rec.temperature = st.temperature;
        rec.candidate_value = st.candidate_value;
        rec.current_value = st.current_value;
        rec.best_value = st.best_value;
        rec.accepted = st.accepted;
        rec.improved = st.improved;
      }
      rec.cached = cached;
      tuner.anneal_log->add(std::move(rec));
    }
  }

  outcome.tuning = best->tuning;
  outcome.result = best->result;
  outcome.objective = best->value;
  outcome.feasible =
      std::abs(outcome.result.efficiency() - tuner.e0) <= tuner.band + 1e-12;
  return outcome;
}

}  // namespace scal::core
