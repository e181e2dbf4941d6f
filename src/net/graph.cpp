#include "net/graph.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

namespace scal::net {

NodeId Graph::add_node() {
  adj_.emplace_back();
  return static_cast<NodeId>(adj_.size() - 1);
}

void Graph::add_edge(NodeId a, NodeId b, double latency, double bandwidth) {
  if (a >= adj_.size() || b >= adj_.size()) {
    throw std::out_of_range("Graph::add_edge: node out of range");
  }
  if (a == b) throw std::invalid_argument("Graph::add_edge: self-loop");
  // Finite only: an infinite latency would leave a linked node
  // unreachable, and an infinite bandwidth would make delay independent
  // of message size.
  if (!(latency >= 0.0) || !std::isfinite(latency) || !(bandwidth > 0.0) ||
      !std::isfinite(bandwidth)) {
    throw std::invalid_argument("Graph::add_edge: bad link parameters");
  }
  adj_[a].push_back(Link{b, latency, bandwidth});
  adj_[b].push_back(Link{a, latency, bandwidth});
  ++edges_;
}

std::span<const Link> Graph::neighbors(NodeId n) const {
  return std::span<const Link>(adj_.at(n));
}

bool Graph::has_edge(NodeId a, NodeId b) const {
  const auto& nbrs = adj_.at(a);
  return std::any_of(nbrs.begin(), nbrs.end(),
                     [b](const Link& l) { return l.to == b; });
}

bool Graph::connected() const {
  if (adj_.empty()) return true;
  std::vector<char> seen(adj_.size(), 0);
  std::queue<NodeId> frontier;
  frontier.push(0);
  seen[0] = 1;
  std::size_t visited = 1;
  while (!frontier.empty()) {
    const NodeId n = frontier.front();
    frontier.pop();
    for (const Link& l : adj_[n]) {
      if (!seen[l.to]) {
        seen[l.to] = 1;
        ++visited;
        frontier.push(l.to);
      }
    }
  }
  return visited == adj_.size();
}

std::vector<std::size_t> Graph::degree_sequence() const {
  std::vector<std::size_t> deg;
  deg.reserve(adj_.size());
  for (const auto& nbrs : adj_) deg.push_back(nbrs.size());
  std::sort(deg.begin(), deg.end(), std::greater<>());
  return deg;
}

}  // namespace scal::net
