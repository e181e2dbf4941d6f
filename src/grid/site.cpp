#include "grid/site.hpp"

#include "grid/digest.hpp"
#include "net/topology.hpp"

namespace scal::grid {

namespace {

/// The topology (Mercator substitute), after the config is validated.
net::Graph make_graph(const GridConfig& config) {
  config.validate();
  util::RandomStream topo_rng(config.seed, "topology");
  return net::generate_topology(config.topology, topo_rng);
}

}  // namespace

Site::Site(const GridConfig& config)
    : key_(site_digest(config)), graph_(make_graph(config)), router_(graph_) {
  util::RandomStream part_rng(config.seed, "partition");
  layout_ = partition_into_clusters(graph_, config.cluster_count(),
                                    config.estimators_per_cluster, part_rng);
  for (net::NodeId v = 1; v < graph_.node_count(); ++v) {
    if (graph_.degree(v) > graph_.degree(middleware_node_)) {
      middleware_node_ = v;
    }
  }
}

}  // namespace scal::grid
