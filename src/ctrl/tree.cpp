#include "ctrl/tree.hpp"

#include <algorithm>
#include <stdexcept>

namespace scal::ctrl {

std::uint32_t AggregationTree::depth() const noexcept {
  std::uint32_t deepest = 0;
  // parent[i] < i for every heap link, so one forward pass suffices.
  std::vector<std::uint32_t> hops(members.size(), 0);
  for (std::size_t i = 0; i < members.size(); ++i) {
    hops[i] = parent[i] == kToRoot
                  ? 1
                  : hops[static_cast<std::size_t>(parent[i])] + 1;
    deepest = std::max(deepest, hops[i]);
  }
  return deepest;
}

AggregationTree build_tree(const net::Router& router, net::NodeId root,
                           std::vector<net::NodeId> members,
                           std::uint32_t fanout) {
  if (fanout == 0) {
    throw std::invalid_argument("build_tree: fanout must be >= 1");
  }
  if (root == net::kInvalidNode) {
    throw std::invalid_argument("build_tree: invalid root node");
  }
  AggregationTree tree;
  tree.root = root;

  // Order members by routed latency from the root (ties by node id so
  // the order is total).  Unreachable members (latency +inf) sort last —
  // the grid's graphs are connected, but the tree must stay well-defined
  // anyway.
  struct Keyed {
    double latency;
    net::NodeId node;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(members.size());
  for (const net::NodeId m : members) {
    keyed.push_back({router.route(root, m).latency, m});
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.latency != b.latency) return a.latency < b.latency;
    return a.node < b.node;
  });
  tree.members.reserve(keyed.size());
  for (const Keyed& k : keyed) tree.members.push_back(k.node);

  rewire(tree, fanout);
  return tree;
}

void rewire(AggregationTree& tree, std::uint32_t fanout) {
  if (fanout == 0) {
    throw std::invalid_argument("rewire: fanout must be >= 1");
  }
  tree.fanout = fanout;
  tree.parent.assign(tree.members.size(), kToRoot);
  // d-ary heap over the member order: the first `fanout` members attach
  // to the root, member i >= fanout to member (i - fanout) / fanout.
  // Nearby (low-latency) members sit high in the tree, so the long-haul
  // hops are taken once, near the root.
  for (std::size_t i = fanout; i < tree.members.size(); ++i) {
    tree.parent[i] =
        static_cast<std::int32_t>((i - fanout) / fanout);
  }
}

}  // namespace scal::ctrl
