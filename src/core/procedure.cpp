#include "core/procedure.hpp"

#include <mutex>
#include <stdexcept>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/anneal_log.hpp"
#include "obs/phase_profiler.hpp"
#include "rms/session.hpp"
#include "util/log.hpp"

namespace scal::core {

CaseResult measure_scalability(const grid::GridConfig& base,
                               grid::RmsKind rms,
                               const ProcedureConfig& procedure,
                               const SimRunner& runner,
                               const ProgressFn& progress) {
  if (procedure.scale_factors.empty()) {
    throw std::invalid_argument("measure_scalability: no scale factors");
  }
  CaseResult result;
  result.scase = procedure.scase;
  result.rms = rms;

  grid::GridConfig rms_base = base;
  rms_base.rms = rms;

  // One evaluation cache and one session pool span the whole sweep
  // (unless the caller supplied shared ones): warm-start anchor probes
  // repeat points across adjacent scale factors, and the session slots
  // keep their sites warm between tunes on the same topology.
  EvalCache sweep_cache;
  rms::SessionPool sweep_sessions;

  std::optional<grid::Tuning> warm;
  for (const double k : procedure.scale_factors) {
    // Step 2: scale along the path.
    const grid::GridConfig scaled = apply_scale(rms_base, procedure.scase, k);
    // Step 3: tune the enablers at this scale.
    TunerConfig tuner = procedure.tuner;
    if (tuner.pool == nullptr) tuner.pool = procedure.pool;
    if (tuner.cache == nullptr) tuner.cache = &sweep_cache;
    if (tuner.sessions == nullptr) tuner.sessions = &sweep_sessions;
    if (warm && procedure.warm_evaluations > 0) {
      tuner.evaluations = procedure.warm_evaluations;
    }
    const TuneOutcome outcome =
        tune_enablers(scaled, procedure.scase, tuner, runner, warm);
    if (procedure.chain_warm_start) warm = outcome.tuning;

    ScalePoint point;
    point.k = k;
    point.tuning = outcome.tuning;
    point.sim = outcome.result;
    point.feasible = outcome.feasible;
    point.tuner_evaluations = outcome.evaluations;
    point.tuner_cache_hits = outcome.cache_hits;
    result.points.push_back(point);

    SCAL_INFO("measure " << grid::to_string(rms) << " k=" << k
                         << " G=" << outcome.result.G()
                         << " E=" << outcome.result.efficiency()
                         << (outcome.feasible ? "" : " (band missed)"));
    if (progress) progress(rms, k, outcome);
  }
  return result;
}

std::vector<CaseResult> measure_all(const grid::GridConfig& base,
                                    const std::vector<grid::RmsKind>& kinds,
                                    const ProcedureConfig& procedure,
                                    const SimRunner& runner,
                                    const ProgressFn& progress) {
  const bool parallel =
      procedure.pool != nullptr && procedure.pool->size() > 0 &&
      kinds.size() > 1;

  // Progress callbacks may fire from any worker under a shared lock (so
  // caller-side printing stays line-atomic); their order across kinds is
  // nondeterministic, unlike the results.
  std::mutex progress_mutex;
  ProgressFn guarded_progress;
  if (progress) {
    guarded_progress = [&](grid::RmsKind rms, double k,
                           const TuneOutcome& outcome) {
      std::lock_guard<std::mutex> lock(progress_mutex);
      progress(rms, k, outcome);
    };
  }

  // Each kind gets a private anneal log; the rows land in the shared
  // sink in kind order afterwards — the same order the serial loop
  // produces, at any job count.
  obs::AnnealLog* shared_log = procedure.tuner.anneal_log;
  std::vector<obs::AnnealLog> kind_logs(
      shared_log != nullptr ? kinds.size() : 0);

  // Same scheme for the phase profiler: each kind times into a private
  // one, folded into the shared sink in kind order afterwards.
  obs::PhaseProfiler* shared_profiler = procedure.tuner.profiler;
  std::vector<obs::PhaseProfiler> kind_profilers(
      shared_profiler != nullptr ? kinds.size() : 0,
      obs::PhaseProfiler(/*enabled=*/true));

  std::vector<CaseResult> results(kinds.size());
  exec::parallel_for(
      parallel ? procedure.pool : nullptr, kinds.size(), [&](std::size_t i) {
        ProcedureConfig kind_procedure = procedure;
        // The per-kind sweep is sequential (warm-start chaining), so the
        // pool's spare lanes go to the annealing chains inside it.
        if (shared_log != nullptr) {
          kind_procedure.tuner.anneal_log = &kind_logs[i];
        }
        if (shared_profiler != nullptr) {
          kind_procedure.tuner.profiler = &kind_profilers[i];
        }
        results[i] = measure_scalability(base, kinds[i], kind_procedure,
                                         runner, guarded_progress);
      });

  if (shared_log != nullptr) {
    for (const obs::AnnealLog& log : kind_logs) {
      for (const obs::AnnealRecord& rec : log.records()) {
        shared_log->add(rec);
      }
    }
  }
  if (shared_profiler != nullptr) {
    for (const obs::PhaseProfiler& profiler : kind_profilers) {
      shared_profiler->merge(profiler);
    }
  }
  return results;
}

}  // namespace scal::core
