#include "net/tree_cache.hpp"

#include <cstring>

#include "util/env.hpp"

namespace scal::net {

namespace {

/// Two independent FNV-1a style lanes (same construction as the config
/// digest in src/grid/digest.cpp, re-stated here because net sits below
/// grid in the layering).
class Mix128 {
 public:
  void word(std::uint64_t w) {
    a_ = (a_ ^ w) * 0x100000001B3ull;
    a_ ^= a_ >> 29;
    b_ = (b_ ^ (w + 0x9E3779B97F4A7C15ull)) * 0xC2B2AE3D27D4EB4Full;
    b_ ^= b_ >> 31;
  }

  void real(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    word(bits);
  }

  std::array<std::uint64_t, 2> finish() const { return {a_, b_}; }

 private:
  std::uint64_t a_ = 0xCBF29CE484222325ull;
  std::uint64_t b_ = 0x6C62272E07BB0142ull;
};

}  // namespace

std::array<std::uint64_t, 2> graph_digest(const Graph& graph) {
  Mix128 mix;
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
    const std::int64_t budget = util::env_int("SCAL_TREE_CACHE_BYTES", 0);
    if (budget > 0) cache.set_max_bytes(static_cast<std::size_t>(budget));
    return true;
  }();
  (void)env_applied;
  return cache;
}

// Out of line, so the cache is instantiated here and not in every
// router's hot translation unit.
std::shared_ptr<const TreeSnapshot> SharedTreeCache::lookup(
    const Key& topology, NodeId src) {
  return TreeFifo::lookup(detail::TreeKey{topology, src});
}

std::shared_ptr<const TreeSnapshot> SharedTreeCache::publish(
    const Key& topology, NodeId src,
    std::shared_ptr<const TreeSnapshot> snapshot) {
  const std::size_t depth = snapshot->settled_count;
  return insert(detail::TreeKey{topology, src}, std::move(snapshot),
                [depth](const TreeSnapshot& existing) {
                  return depth > existing.settled_count;
                });
}

}  // namespace scal::net
