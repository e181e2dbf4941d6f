#include "net/tree_cache.hpp"

#include "util/env.hpp"
#include "util/mix128.hpp"

namespace scal::net {

std::array<std::uint64_t, 2> graph_digest(const Graph& graph) {
  util::Mix128 mix;
  const std::size_t n = graph.node_count();
  mix.word(n);
  for (std::size_t u = 0; u < n; ++u) {
    const auto links = graph.neighbors(static_cast<NodeId>(u));
    mix.word(links.size());
    for (const Link& l : links) {
      mix.word(l.to);
      mix.real(l.latency);
      mix.real(l.bandwidth);
    }
  }
  return mix.finish();
}

SharedTreeCache& SharedTreeCache::instance() {
  static SharedTreeCache cache;
  static const bool env_applied = [] {
    const std::uint64_t budget = util::env_count("SCAL_TREE_CACHE_BYTES", 0);
    if (budget > 0) cache.set_max_bytes(static_cast<std::size_t>(budget));
    return true;
  }();
  (void)env_applied;
  return cache;
}

// Out of line, so the cache is instantiated here and not in every
// router's hot translation unit.
std::shared_ptr<const SourceTree> SharedTreeCache::lookup(const Key& topology,
                                                         NodeId src) {
  return TreeFifo::lookup(detail::TreeKey{topology, src});
}

std::shared_ptr<const SourceTree> SharedTreeCache::publish(
    const Key& topology, NodeId src, std::shared_ptr<const SourceTree> tree) {
  const std::size_t depth = tree->settled_count;
  return insert(detail::TreeKey{topology, src}, std::move(tree),
                [depth](const SourceTree& existing) {
                  return depth > existing.settled_count;
                });
}

}  // namespace scal::net
