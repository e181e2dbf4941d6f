#pragma once
// Step 3 of the measurement procedure (paper Figure 1): tune the RMS's
// scaling enablers with a simulated-annealing search so the overall
// efficiency stays at the chosen E0 while the RMS overhead G(k) is
// minimized.

#include <functional>
#include <optional>
#include <string>

#include "core/scaling.hpp"
#include "grid/metrics.hpp"
#include "opt/eval_cache.hpp"

namespace scal::obs {
class AnnealLog;
class PhaseProfiler;
}

namespace scal::exec {
class ThreadPool;
}

namespace scal::rms {
class SessionPool;
}

namespace scal::core {

/// Runs one simulation for a configuration.  Injected so tests can
/// substitute analytic stand-ins.  An EMPTY runner selects the
/// production reusable-session backend (rms::SimulationSession): each
/// evaluation builds a fresh system over the session's site for the
/// candidate's topology, seed and cluster shape, so the topology and
/// the warm routes are built once per site — the fast path the
/// procedures use by default.
using SimRunner =
    std::function<grid::SimulationResult(const grid::GridConfig&)>;

/// The stateless runner, Scenario(config).run(): a fresh system per
/// call.  Kept for callers that need stateless evaluations; the
/// procedures now default to the empty-runner session backend instead.
SimRunner default_runner();

/// The tuner's memoization table: keyed on (config digest, exact search
/// point), valued with the full simulation result so the penalized
/// objective can be recomputed at hit time under any tuner parameters.
using EvalCache = opt::EvalCache<grid::SimulationResult>;

struct TunerConfig {
  double e0 = 0.40;          ///< target efficiency (paper: band [0.38, 0.42])
  double band = 0.02;        ///< |E - e0| <= band is feasible
  std::size_t evaluations = 18;  ///< simulation budget for the search
  /// Independent annealing chains (best-of).  Multiple restarts matter:
  /// the efficiency-band penalty carves the G landscape into disjoint
  /// feasible pockets, and a single local walk can cool inside the
  /// wrong one.
  std::size_t restarts = 3;
  /// Multiplier applied to G when efficiency leaves the band; scale-free
  /// quadratic penalty.
  double penalty_weight = 60.0;
  std::uint64_t seed = 1234;  ///< search seed (independent of sim seed)

  /// Optional annealing telemetry sink (non-owning; null = off).  Every
  /// objective evaluation — including the warm-start anchor probes,
  /// which are logged with temperature 0 — lands here as one
  /// obs::AnnealRecord tagged with `anneal_label`.  Purely
  /// observational: the search trajectory is identical with or without
  /// it.
  obs::AnnealLog* anneal_log = nullptr;
  std::string anneal_label;  ///< e.g. "LOWEST k=3"

  /// Optional worker pool (non-owning, like anneal_log): the annealing
  /// restart chains run concurrently on its workers plus the calling
  /// thread.  Null = serial.  The outcome is bit-identical either way;
  /// `runner` must be safe to call from several threads when set.
  exec::ThreadPool* pool = nullptr;

  /// Optional shared evaluation cache (non-owning).  Null = a private
  /// cache per tune_enablers call (still deduplicates within the tune).
  /// Sharing one cache across tunes — adjacent scale factors along a
  /// scaling path, overlapping path-search splits — lets later tunes
  /// answer repeated evaluations from earlier ones.  The outcome is
  /// bit-identical with or without sharing.  Tunes may share a cache in
  /// turn, never at the same time: a tune counts a key it never claimed
  /// as answered by an earlier tune.
  EvalCache* cache = nullptr;

  /// Optional shared session pool (non-owning) for the empty-runner
  /// backend: slot s of the pool carries anneal chain s's warm sites
  /// across tune_enablers calls.  Null = a private pool per call.
  /// Ignored when `runner` is non-empty.
  rms::SessionPool* sessions = nullptr;

  /// Optional phase profiler (non-owning, like anneal_log): every
  /// logical evaluation — cache hits included, so the call count is a
  /// pure function of the search — runs inside a "tuner.evaluate"
  /// scope.  Concurrent chains time into per-slot profilers merged in
  /// slot order on the calling thread, so the recorded counts are
  /// bit-identical at any --jobs count.  Null = off.
  obs::PhaseProfiler* profiler = nullptr;
};

struct TuneOutcome {
  grid::Tuning tuning;            ///< best enabler setting found
  grid::SimulationResult result;  ///< simulation at that setting
  double objective = 0.0;
  bool feasible = false;  ///< efficiency within the band at the optimum
  std::size_t evaluations = 0;
  /// Evaluations answered by memoization, under serial-replay semantics
  /// (anchors first, then chains in index order): an evaluation counts
  /// as a hit when its key was already evaluated earlier in that order
  /// or by an earlier tune sharing the cache (or the disk file).
  /// Independent of --jobs, so the jobs-1/N arms report the same
  /// statistics.
  std::size_t cache_hits = 0;
  /// The subset of cache_hits that first asked for a key this tune never
  /// simulated itself: one per key answered by an earlier tune or the
  /// disk file.
  std::size_t cache_prior_hits = 0;
};

/// Penalized objective: G * (1 + w * excess^2) where excess is how far
/// (relative to the band width) the efficiency strays outside the band.
double penalized_objective(const grid::SimulationResult& result,
                           const TunerConfig& config);

/// Tune the enablers of `config` (bounds from `scase`) with simulated
/// annealing.  `warm_start` seeds the search (typically the previous
/// scale factor's optimum, which makes the k-sweep cheap and smooth).
/// Each evaluation is recorded once; the outcome, its hit statistics and
/// the anneal log all come from one serial replay of those records in
/// slot order (anchors, then chains by index), so they are bit-identical
/// at any --jobs count.
TuneOutcome tune_enablers(const grid::GridConfig& config,
                          const ScalingCase& scase, const TunerConfig& tuner,
                          const SimRunner& runner,
                          const std::optional<grid::Tuning>& warm_start = {});

}  // namespace scal::core
