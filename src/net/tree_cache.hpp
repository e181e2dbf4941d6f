#pragma once
// Process-wide memo of settled shortest-path source trees, keyed on a
// 128-bit topology digest (net::graph_digest covers node count and every
// link's endpoint/latency/bandwidth) plus the source node.  Parallel
// session slots, SA restart chains, and per-RMS sweeps all route over
// bit-identical graphs; sharing the trees means each source is settled
// once per process instead of once per GridSystem (the PR 5 profiling
// carry-over).
//
// Entries are the immutable net::SourceTree values routers hold in their
// slots, behind shared_ptr, so concurrent readers never observe a
// mutating Dijkstra frontier.  A router that needs to settle *further*
// than a tree reaches settles a copy (copy-on-extend) and publishes it.
// The frontier is a util::QuadHeap that shrinks as it pops, so a copy
// carries only the entries still queued, not the tree's peak frontier.
// Publication is first-publish-wins with strictly-deeper upgrades, and
// every tree agrees on its settled prefix (Dijkstra finalizes in global
// distance order), so which tree a reader adopts can never change a
// route.
//
// A util::FifoCache keyed on (topology, source) in which a strictly
// deeper tree replaces the entry: set_max_bytes (or
// SCAL_TREE_CACHE_BYTES at first use) caps the resident payload,
// oldest-first.

#include <array>
#include <cstdint>
#include <memory>

#include "net/routing.hpp"
#include "util/fifo_cache.hpp"

namespace scal::net {

/// 128-bit structural fingerprint of a graph: node count plus every
/// link's (to, latency, bandwidth) in adjacency order.  Two graphs with
/// equal digests route identically, so their source trees are
/// interchangeable.
std::array<std::uint64_t, 2> graph_digest(const Graph& graph);

namespace detail {
struct TreeKey {
  std::array<std::uint64_t, 2> topology{};
  NodeId src = 0;
  bool operator==(const TreeKey&) const = default;
};
struct TreeKeyHash {
  std::size_t operator()(const TreeKey& k) const noexcept {
    // The topology key is already a high-quality digest; fold in src.
    return static_cast<std::size_t>(
        k.topology[0] ^ (k.topology[1] * 0x9E3779B97F4A7C15ull) ^
        (static_cast<std::uint64_t>(k.src) * 0xC2B2AE3D27D4EB4Full));
  }
};
using TreeFifo = util::FifoCache<TreeKey, SourceTree, TreeKeyHash>;
}  // namespace detail

class SharedTreeCache : private detail::TreeFifo {
  using TreeFifo = detail::TreeFifo;

 public:
  using Key = std::array<std::uint64_t, 2>;

  SharedTreeCache()
      : TreeFifo([](const SourceTree& t) { return t.bytes(); }) {}

  /// The process-wide instance every sharing Router consults.  The
  /// first call reads SCAL_TREE_CACHE_BYTES (bytes; unset or 0 keeps
  /// the cache unbounded) into the byte budget, and throws
  /// std::invalid_argument when it is not a non-negative integer.
  static SharedTreeCache& instance();

  /// The cached tree for (topology, src), or null.  Counts a share or
  /// a miss.
  std::shared_ptr<const SourceTree> lookup(const Key& topology, NodeId src);

  /// Publish a tree for (topology, src).  First-publish-wins; a later
  /// tree replaces the entry only when strictly deeper (more settled
  /// nodes), so racing publishers of the same settle depth keep the
  /// canonical first entry.  Returns the entry now in the cache (the
  /// prior one when the publish lost the race), or `tree` unstored when
  /// the byte budget cannot keep it.
  std::shared_ptr<const SourceTree> publish(
      const Key& topology, NodeId src, std::shared_ptr<const SourceTree> tree);

  /// Byte budget, resident bytes and entries, evictions (entries
  /// dropped or trees refused for the budget), and clear() (drops every
  /// entry and zeroes the counters; routers holding adopted trees keep
  /// them alive; the budget is kept).
  using TreeFifo::set_max_bytes, TreeFifo::max_bytes, TreeFifo::bytes,
      TreeFifo::size, TreeFifo::misses, TreeFifo::evictions, TreeFifo::clear;

  std::uint64_t shares() const { return hits(); }  ///< lookups answered
  /// Trees accepted, upgrades included.
  std::uint64_t publishes() const { return inserts() + replacements(); }
  /// Publishes that replaced a shallower tree.
  std::uint64_t upgrades() const { return replacements(); }
};

}  // namespace scal::net
