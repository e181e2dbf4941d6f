#pragma once
// The scalability measurement procedure of the paper's Figure 1:
//   Step 1  choose a feasible efficiency E0 to hold constant,
//   Step 2  scale the RP or the RMS along the scaling path,
//   Step 3  tune the scaling enablers (simulated annealing) so the
//           efficiency stays at E0 with minimum RMS overhead G(k),
//   Step 4  compute the scalability of the RMS from the slope of G(k).

#include <functional>
#include <vector>

#include "core/isoefficiency.hpp"
#include "core/tuner.hpp"

namespace scal::exec {
class ThreadPool;
}

namespace scal::core {

struct ProcedureConfig {
  ScalingCase scase = ScalingCase::case1_network_size();
  std::vector<double> scale_factors = {1, 2, 3, 4, 5, 6};
  TunerConfig tuner;
  /// Warm-start each scale factor's search from the previous optimum.
  bool chain_warm_start = true;
  /// Evaluation budget for warm-started scale points (0 = same as the
  /// first point's budget).  Warm starts converge much faster, so the
  /// sweep spends most of its budget on the base configuration.
  std::size_t warm_evaluations = 0;
  /// Optional worker pool (non-owning).  measure_all spreads RMS kinds
  /// over it and every tuner search spreads its annealing chains over
  /// it (nested use of one pool is safe); results are bit-identical to
  /// the serial run.  The runner and progress callback must be
  /// thread-safe when set.
  exec::ThreadPool* pool = nullptr;
};

/// Progress callback: (rms, k, outcome) after each tuned scale point.
using ProgressFn = std::function<void(grid::RmsKind, double,
                                      const TuneOutcome&)>;

/// Measure one RMS along one scaling case.  `base` must describe the
/// k = 1 configuration; its rms field is overridden by `rms`.  The
/// default (empty) runner is the reusable-session backend: one
/// evaluation cache and one session pool span the whole k sweep, so
/// repeated anchor probes cost nothing and each evaluation builds its
/// system over a warm site instead of regenerating the topology and
/// routes.  Results are bit-identical to an explicit default_runner().
CaseResult measure_scalability(const grid::GridConfig& base,
                               grid::RmsKind rms,
                               const ProcedureConfig& procedure,
                               const SimRunner& runner = {},
                               const ProgressFn& progress = {});

/// Measure every requested RMS (paper Figures 2-5 sweep all seven).
/// With a pool on `procedure`, kinds run concurrently; the result
/// vector, the tuner outcomes, and the anneal-log row order are
/// bit-identical to the serial sweep.  Progress callbacks are
/// serialized but may arrive in any kind order.
std::vector<CaseResult> measure_all(
    const grid::GridConfig& base, const std::vector<grid::RmsKind>& kinds,
    const ProcedureConfig& procedure, const SimRunner& runner = {},
    const ProgressFn& progress = {});

}  // namespace scal::core
