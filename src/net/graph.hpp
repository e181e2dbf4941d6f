#pragma once
// Undirected weighted graph: the router-level substrate the grid is
// mapped onto.  Links carry latency (time units) and bandwidth (units of
// message size per time unit).

#include <cstdint>
#include <span>
#include <vector>

namespace scal::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = ~NodeId{0};

struct Link {
  NodeId to = kInvalidNode;
  double latency = 1.0;    ///< propagation delay per traversal
  double bandwidth = 1.0;  ///< size units per time unit
};

class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t nodes) : adj_(nodes) {}

  NodeId add_node();
  /// Add an undirected edge; both directions share latency/bandwidth.
  /// Throws std::invalid_argument unless latency is finite and >= 0 and
  /// bandwidth is finite and > 0.
  void add_edge(NodeId a, NodeId b, double latency, double bandwidth);

  std::size_t node_count() const noexcept { return adj_.size(); }
  std::size_t edge_count() const noexcept { return edges_; }

  std::span<const Link> neighbors(NodeId n) const;
  std::size_t degree(NodeId n) const { return adj_.at(n).size(); }
  bool has_edge(NodeId a, NodeId b) const;

  /// BFS reachability from node 0.
  bool connected() const;

  /// Degree sequence (sorted descending) — used by topology tests.
  std::vector<std::size_t> degree_sequence() const;

 private:
  std::vector<std::vector<Link>> adj_;
  std::size_t edges_ = 0;
};

}  // namespace scal::net
