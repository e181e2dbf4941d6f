#pragma once
// Site: the part of a managed grid that depends only on where it runs —
// the topology graph, its cluster layout, the middleware node, and the
// router with its lazily settled shortest-path trees.  A site is a pure
// function of (topology, seed, cluster_size, estimators_per_cluster);
// every other GridConfig field (RMS kind, enablers, rates, workload,
// faults, result mode) belongs to the GridSystem built over it.
//
// Every run is a freshly constructed GridSystem; what a site saves is
// the topology generation and the route settling, the dominant cost of a
// cold build on a large graph.  Routes depend on the graph alone (the
// link-delay enabler scales them at query time in net::Network), so one
// router serves every system built over the site, one at a time.
// rms::SimulationSession keeps the site of its current site key;
// GridSystem(config, factory) builds a private one.

#include <array>
#include <cstdint>

#include "grid/cluster.hpp"
#include "grid/config.hpp"
#include "net/graph.hpp"
#include "net/routing.hpp"

namespace scal::grid {

class Site {
 public:
  using Key = std::array<std::uint64_t, 2>;

  /// Validate `config` and build the site it runs on from its site
  /// fields.
  explicit Site(const GridConfig& config);

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  /// grid::site_digest of the config the site was built from: systems
  /// whose config has this digest may run over it.
  const Key& key() const noexcept { return key_; }

  const net::Graph& graph() const noexcept { return graph_; }
  const ClusterLayout& layout() const noexcept { return layout_; }
  /// The globally best-connected node, where the middleware lives.
  net::NodeId middleware_node() const noexcept { return middleware_node_; }
  /// The router over graph(); net::Router::share_trees opts it into the
  /// process-wide net::SharedTreeCache.
  net::Router& router() noexcept { return router_; }

 private:
  Key key_;
  net::Graph graph_;
  ClusterLayout layout_;
  net::NodeId middleware_node_ = 0;
  net::Router router_;  ///< routes over graph_; declared after it
};

}  // namespace scal::grid
