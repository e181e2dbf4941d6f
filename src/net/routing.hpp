#pragma once
// OSPF-like routing: link-state shortest paths by cumulative link latency
// (Dijkstra), computed per source on demand and cached.  Along the chosen
// path we accumulate both total propagation latency and total inverse
// bandwidth, so an end-to-end message delay is
//     delay = sum(latency) + size * sum(1/bandwidth).

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "net/graph.hpp"
#include "obs/phase_profiler.hpp"
#include "util/quad_heap.hpp"

namespace scal::net {

struct RouteInfo {
  /// Sum of link latencies on the path; +inf while (or if never) reached,
  /// so a destination is reachable exactly when its latency is finite.
  double latency = std::numeric_limits<double>::infinity();
  double inv_bandwidth = 0.0;  ///< sum of 1/bandwidth on the path
};

/// One source's shortest-path tree: the resumable state of a lazy
/// Dijkstra.  Most sources only ever query a couple of nearby
/// destinations (a resource talks to its estimator, an estimator to its
/// scheduler), so a tree settles nodes only until the queried
/// destination is final, and a later query that reaches further resumes
/// from the saved frontier.  Dijkstra finalizes in global distance order,
/// so the settled prefix of every tree of one (graph, src) is what a full
/// run would produce: laziness never changes a route.
///
/// A tree is never mutated once a Router holds it; extending one settles
/// a copy.  So trees are shared read-only across routers through
/// net::SharedTreeCache, and no reader observes a moving frontier.
struct SourceTree {
  std::vector<RouteInfo> info;  ///< indexed by node; latency is the distance
  std::vector<char> settled;    ///< info[v] is final
  /// Min-heap of (distance, node) keys: util::QuadHeap::key(distance,
  /// node).  A node's distance only strictly decreases, so no two
  /// entries tie and any exact min-heap pops the same sequence.
  util::QuadHeap frontier;
  std::size_t settled_count = 0;
  bool exhausted = false;  ///< the frontier ran dry: the rest is unreachable

  /// Approximate resident payload, for the shared cache's byte budget.
  std::size_t bytes() const noexcept {
    return info.capacity() * sizeof(RouteInfo) + settled.capacity() +
           frontier.bytes();
  }
};

class Router {
 public:
  /// Routes over `graph`, which must outlive the router and keep its
  /// nodes and links.
  explicit Router(const Graph& graph)
      : graph_(&graph), trees_(graph.node_count()) {}

  /// Route lookup (latency +inf when dst is unreachable); settles the
  /// source's tree as far as dst on first need.
  RouteInfo route(NodeId src, NodeId dst) const;

  /// End-to-end one-way delay for a message of `size` units; 0 when
  /// src == dst.  Throws if dst is unreachable.
  double delay(NodeId src, NodeId dst, double size) const;

  /// Opt into the process-wide SharedTreeCache under the digest of this
  /// router's graph (net::graph_digest): a source's first touch adopts
  /// the cached tree, and every tree this router settles is published.
  /// Purely a wall-clock optimization: routes are bit-identical either
  /// way, but profiler `net.route` scope counts drop for queries a
  /// shared tree already answers, so instrumented runs leave it off.
  void share_trees();

  /// Attach the (optional) phase profiler: shortest-path settling work
  /// (the incremental Dijkstra) runs inside the given phase.  Warm
  /// queries — the overwhelming majority — pay only the settled test,
  /// so instrumentation stays off the hot path.  The scope count is the
  /// number of queries that extended a tree, a pure function of the
  /// query sequence.  Null detaches.
  void attach_profiler(obs::PhaseProfiler* profiler,
                       obs::PhaseId route_phase) noexcept {
    profiler_ = profiler;
    route_phase_ = route_phase;
  }

 private:
  /// src's tree, settled at least as far as dst: the slot's tree, or
  /// (after a first-touch cache lookup when sharing) a deeper one settled
  /// into the slot.  Range-checks both ids.
  const SourceTree& lookup(NodeId src, NodeId dst) const;
  /// A copy of `from` (a fresh tree when null) settled until dst is
  /// final or the frontier runs dry; published when sharing.
  std::shared_ptr<const SourceTree> settle(NodeId src, const SourceTree* from,
                                           NodeId dst) const;

  const Graph* graph_;
  // One slot per source, indexed by node id: the schedulers query the
  // same (src, dst) pairs every update interval, so the hot path is a
  // null test plus two vector indexes instead of a hash lookup.
  mutable std::vector<std::shared_ptr<const SourceTree>> trees_;
  bool sharing_ = false;
  std::array<std::uint64_t, 2> topology_key_{};
  obs::PhaseProfiler* profiler_ = nullptr;
  obs::PhaseId route_phase_ = 0;
};

}  // namespace scal::net
