#pragma once
// Fan-out aggregation trees: the forwarding overlay of the control
// plane (docs/CONTROL_PLANE.md).  Real resource managers avoid the
// O(resources) point-to-point status flood with a d-ary forwarding tree
// rooted at the collector — Slurm's agent tree is the canonical example.
// Here each (cluster, estimator) pair gets one tree: the estimator's
// node is the root, the cluster's resource nodes are the members, and
// status updates climb member -> parent -> ... -> root, coalescing at
// every hop.
//
// Shape contract: members are ordered by (routed latency from the root,
// node id) — network-aware, deterministic, and independent of the
// fan-out degree — and the parent links form a d-ary heap over that
// order.  Because the member order never depends on the fan-out, a
// tuner that moves the fan-out enabler only re-links parents (rewire);
// the member set, and therefore the simulation's entity arena, is the
// same at every fan-out.

#include <cstdint>
#include <vector>

#include "net/routing.hpp"

namespace scal::ctrl {

/// parent[] value meaning "forwards straight to the root collector".
inline constexpr std::int32_t kToRoot = -1;

struct AggregationTree {
  net::NodeId root = net::kInvalidNode;
  /// Member nodes in (latency from root, node id) order; fixed for a
  /// given (graph, root, member set) regardless of fanout.
  std::vector<net::NodeId> members;
  /// parent[i] indexes members, or kToRoot for the root's children.
  std::vector<std::int32_t> parent;
  std::uint32_t fanout = 1;

  /// Longest member-to-root path in hops (0 for an empty tree; 1 when
  /// every member is a root child, i.e. fanout >= member count).
  std::uint32_t depth() const noexcept;
};

/// Build the tree for `root` over `members` with degree `fanout >= 1`.
/// Deterministic in (graph, root, members, fanout); throws
/// std::invalid_argument on fanout == 0 or an invalid root.
AggregationTree build_tree(const net::Router& router, net::NodeId root,
                           std::vector<net::NodeId> members,
                           std::uint32_t fanout);

/// Re-link parents for a new fanout, keeping the member order (and so
/// the hosting entities) untouched.  Throws on fanout == 0.
void rewire(AggregationTree& tree, std::uint32_t fanout);

}  // namespace scal::ctrl
