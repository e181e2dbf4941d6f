#pragma once
// SimulationSession / SessionPool: the reusable-simulation-state backend
// of the enabler tuner.  Every run() constructs a fresh GridSystem and
// destroys it afterwards, so a reused run is bit-identical to a fresh
// build because it is one.  What the session keeps between runs is the
// grid::Site — the topology, the cluster layout, and the router's warm
// shortest-path trees, the dominant cold-start cost on large graphs —
// of its site key (grid::site_digest: topology, seed, cluster_size,
// estimators_per_cluster).  Runs that differ in anything else (RMS kind,
// enablers, rates, workload, faults, result mode) share the site.  A
// run under another site key replaces it: a sweep visits each scale
// point's key once, and keeping the earlier sites would only hold their
// routers' trees (docs/PERFORMANCE.md measures the memory it costs).
//
// A session's sites opt into the process-wide shared source-tree cache
// (net::SharedTreeCache): sibling slots route over identical graphs, so
// the first slot to settle a source publishes it and the rest adopt
// instead of re-running Dijkstra.  Routes are bit-identical shared or
// not; a run with telemetry attached gets a private site of its own that
// does not share, so profiler scope counts stay exact.
//
// A session is single-threaded.  Concurrent annealing chains each use
// their own slot of a SessionPool (the tuner's slot discipline maps one
// chain to one slot), so no locking is needed anywhere on this path.

#include <deque>
#include <memory>

#include "grid/site.hpp"
#include "grid/system.hpp"

namespace scal::rms {

class SimulationSession {
 public:
  /// Run one simulation of `config` on a freshly constructed system over
  /// the session's site, built first when `config` has another site key.
  grid::SimulationResult run(const grid::GridConfig& config);

  /// Sites this session built, telemetry runs' private sites included
  /// (diagnostics).
  std::size_t rebuilds() const noexcept { return rebuilds_; }

 private:
  std::unique_ptr<grid::Site> site_;  ///< shares trees; null before a run
  std::size_t rebuilds_ = 0;
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
