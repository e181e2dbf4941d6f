#include "net/routing.hpp"

#include <stdexcept>

#include "net/tree_cache.hpp"

namespace scal::net {

void Router::share_trees() {
  sharing_ = true;
  topology_key_ = graph_digest(*graph_);
}

const SourceTree& Router::lookup(NodeId src, NodeId dst) const {
  if (dst >= trees_.size()) {
    throw std::out_of_range("Router: destination out of range");
  }
  if (src >= trees_.size()) {
    throw std::out_of_range("Router: source out of range");
  }
  std::shared_ptr<const SourceTree>& slot = trees_[src];
  if (slot == nullptr && sharing_) {
    slot = SharedTreeCache::instance().lookup(topology_key_, src);
  }
  if (slot == nullptr || (slot->settled[dst] == 0 && !slot->exhausted)) {
    slot = settle(src, slot.get(), dst);
  }
  return *slot;
}

std::shared_ptr<const SourceTree> Router::settle(NodeId src,
                                                 const SourceTree* from,
                                                 NodeId dst) const {
  obs::PhaseProfiler::Scope scope(profiler_, route_phase_);
  std::shared_ptr<SourceTree> tree;
  if (from != nullptr) {
    tree = std::make_shared<SourceTree>(*from);
  } else {
    tree = std::make_shared<SourceTree>();
    tree->info.resize(trees_.size());
    tree->settled.assign(trees_.size(), 0);
    tree->info[src].latency = 0.0;
    tree->frontier.push(util::QuadHeap::key(0.0, src));
  }
  std::vector<RouteInfo>& info = tree->info;
  util::QuadHeap& heap = tree->frontier;
  bool settled_dst = false;
  while (!heap.empty()) {
    const util::QuadHeap::Key top = heap.pop();
    const double d = util::QuadHeap::value_of(top);
    const auto u = static_cast<NodeId>(util::QuadHeap::tag_of(top));
    if (d > info[u].latency) continue;  // superseded entry
    tree->settled[u] = 1;
    ++tree->settled_count;
    for (const Link& l : graph_->neighbors(u)) {
      const double nd = d + l.latency;
      // Strict improvement keeps the tree deterministic given adjacency
      // order (ties resolve to the first-relaxed predecessor).
      if (nd < info[l.to].latency) {
        info[l.to].latency = nd;
        info[l.to].inv_bandwidth = info[u].inv_bandwidth + 1.0 / l.bandwidth;
        heap.push(util::QuadHeap::key(nd, l.to));
      }
    }
    if (u == dst) {
      settled_dst = true;
      break;
    }
  }
  if (!settled_dst) tree->exhausted = true;
  // Publish the deeper tree so sibling routers adopt instead of
  // re-settling.  The slot keeps this tree even when the cache holds an
  // older, deeper one, so a router settles (and publishes) exactly as
  // often as it would extending a private tree.
  if (sharing_) SharedTreeCache::instance().publish(topology_key_, src, tree);
  return tree;
}

RouteInfo Router::route(NodeId src, NodeId dst) const {
  return lookup(src, dst).info[dst];
}

double Router::delay(NodeId src, NodeId dst, double size) const {
  if (src == dst && src < trees_.size()) return 0.0;
  const RouteInfo& info = lookup(src, dst).info[dst];
  if (info.latency == std::numeric_limits<double>::infinity()) {
    throw std::runtime_error("Router::delay: destination unreachable");
  }
  return info.latency + size * info.inv_bandwidth;
}

}  // namespace scal::net
