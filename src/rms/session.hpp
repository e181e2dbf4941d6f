#pragma once
// SimulationSession / SessionPool: the reusable-simulation-state backend
// of the enabler tuner.  A session keeps the last GridSystem it built
// alive between runs; when the next config differs only in the tuning
// enablers (GridSystem::reset_compatible), the system is rewound with
// GridSystem::reset() instead of reconstructed — reusing the topology,
// the router's warm shortest-path trees (the dominant cold-start cost on
// large graphs), the entity arena, and the generated workload.  Results
// are bit-identical either way; the session is purely a wall-clock
// optimization.
//
// Sessions also opt their systems into the process-wide shared
// source-tree cache (net::SharedTreeCache): sibling slots route over
// identical graphs, so the first slot to settle a source publishes it
// and the rest adopt instead of re-running Dijkstra.  Routes are
// bit-identical shared or not; instrumented configs (telemetry
// attached) keep sharing off so profiler scope counts stay exact.
//
// A session is single-threaded.  Concurrent annealing chains each use
// their own slot of a SessionPool (the tuner's slot discipline maps one
// chain to one slot), so no locking is needed anywhere on this path.

#include <deque>
#include <memory>

#include "grid/system.hpp"

namespace scal::rms {

class SimulationSession {
 public:
  /// Run one simulation of `config`, reusing the previously built system
  /// when structurally compatible.  Configs with telemetry attached are
  /// never reset-compatible, so instrumented runs always build fresh.
  /// If the run throws, the system is dropped and the next call builds
  /// a new one.
  grid::SimulationResult run(const grid::GridConfig& config);

  /// Times run() had to construct a system (diagnostics).
  std::size_t rebuilds() const noexcept { return rebuilds_; }

  /// Router source-tree sharing for systems this session builds
  /// (default on; see header comment).  Honored at the next rebuild.
  void set_tree_sharing(bool on) noexcept { tree_sharing_ = on; }
  bool tree_sharing() const noexcept { return tree_sharing_; }

 private:
  std::unique_ptr<grid::GridSystem> system_;
  std::size_t rebuilds_ = 0;
  bool tree_sharing_ = true;
};

/// Lazily grown set of sessions with stable references.  Thread-compatible
/// by the slot discipline above: slot(i) must only be used by one thread
/// at a time, and growth happens on the tuner's calling thread before the
/// chains start.
class SessionPool {
 public:
  SimulationSession& slot(std::size_t index) {
    while (sessions_.size() <= index) sessions_.emplace_back();
    return sessions_[index];
  }

  std::size_t size() const noexcept { return sessions_.size(); }

 private:
  std::deque<SimulationSession> sessions_;
};

}  // namespace scal::rms
