#pragma once
// Simulated annealing (Kirkpatrick-style with geometric cooling and
// optional restarts).  The paper tunes the RMS scaling enablers with "a
// simulated annealing type of search" [2, 12, 5]; this is that search.
//
// Restart chains are independent searches: each chain draws from its
// own RNG substream (derived from one draw of the caller's stream via
// exec::SeedSequence) and all cross-chain reductions — best-of point
// selection and the steps' global-best column — happen in chain-index
// order after every chain finished.  The result is therefore
// bit-identical whether the chains run serially or on a worker pool
// (docs/PARALLELISM.md).

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "opt/space.hpp"

namespace scal::exec {
class ThreadPool;
}

namespace scal::opt {

/// Objective to MINIMIZE.  Constraint handling (the efficiency band) is
/// done by the caller via penalties folded into the objective.
using Objective = std::function<double(const Point&)>;

/// Per-chain objective maker: called once per chain, on the caller's
/// thread, before any chain runs.  Lets stateful objectives (the tuner
/// records every evaluation) keep one record list per chain instead of
/// sharing mutable state across workers.
using ObjectiveFactory = std::function<Objective(std::size_t chain)>;

/// One objective evaluation of one chain.  Defined here (not in obs) so
/// opt stays free of telemetry deps; the tuner layer converts these into
/// obs::AnnealRecord rows.
struct AnnealStep {
  std::size_t chain = 0;
  std::size_t iteration = 0;  ///< 0 = the chain's initial evaluation
  double temperature = 0.0;
  double candidate_value = 0.0;  ///< value of the point just evaluated
  double current_value = 0.0;    ///< chain state after the accept decision
  /// Best value so far across chains, in chain-major order: chain c's
  /// steps see every earlier chain's best.
  double best_value = 0.0;
  bool accepted = false;
  bool improved = false;  ///< accepted and strictly better than current
};

struct AnnealingConfig {
  std::size_t iterations = 400;    ///< total objective evaluations
  double initial_temperature = 1.0;
  double final_temperature = 0.01;
  std::size_t restarts = 1;        ///< independent chains (best-of)
  /// Optional warm start; defaults to Space::center().
  std::optional<Point> initial_point;
  /// Optional worker pool; chains run concurrently on pool workers plus
  /// the calling thread.  Null = serial.  Either way the result is
  /// bit-identical.  With a pool and no chain_objective, `objective`
  /// must be safe to call from several threads at once.
  exec::ThreadPool* pool = nullptr;
  /// Optional per-chain objective maker; when set, it takes precedence
  /// over the `objective` argument of anneal().
  ObjectiveFactory chain_objective;
};

struct AnnealingResult {
  Point best_point;
  double best_value = 0.0;
  /// Every objective evaluation, chain-major (chain 0's steps first, each
  /// chain's in iteration order).
  std::vector<AnnealStep> steps;
};

/// Runs config.restarts independent chains and keeps the best point
/// (ties broken toward the lower chain index).  `rng` is consumed for
/// exactly one draw, which roots every chain's substream.
AnnealingResult anneal(const Space& space, const Objective& objective,
                       const AnnealingConfig& config,
                       util::RandomStream& rng);

}  // namespace scal::opt
