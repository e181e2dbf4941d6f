#include "net/topology.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace scal::net {

std::string to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kPreferentialAttachment: return "pref-attach";
    case TopologyKind::kWaxman: return "waxman";
    case TopologyKind::kRingLattice: return "ring-lattice";
    case TopologyKind::kStar: return "star";
    case TopologyKind::kTransitStub: return "transit-stub";
  }
  return "?";
}

namespace {

double draw_latency(const TopologyConfig& config, util::RandomStream& rng) {
  return rng.uniform(config.latency_min, config.latency_max);
}

Graph make_pref_attach(const TopologyConfig& config,
                       util::RandomStream& rng) {
  const std::size_t n = config.nodes;
  const std::size_t m = std::max<std::size_t>(1, config.pa_edges_per_node);
  Graph g(n);
  if (n == 1) return g;

  // Seed clique over the first m+1 nodes keeps the graph connected and
  // gives the attachment process a non-degenerate start.
  const std::size_t seed = std::min(n, m + 1);
  std::vector<NodeId> endpoint_bag;  // node repeated once per incident edge
  for (std::size_t a = 0; a < seed; ++a) {
    for (std::size_t b = a + 1; b < seed; ++b) {
      g.add_edge(static_cast<NodeId>(a), static_cast<NodeId>(b),
                 draw_latency(config, rng), config.bandwidth);
      endpoint_bag.push_back(static_cast<NodeId>(a));
      endpoint_bag.push_back(static_cast<NodeId>(b));
    }
  }

  for (std::size_t v = seed; v < n; ++v) {
    std::vector<NodeId> targets;
    targets.reserve(m);
    // Draw m distinct targets weighted by degree (bag sampling).
    std::size_t guard = 0;
    while (targets.size() < std::min(m, v) && guard < 64 * m) {
      ++guard;
      const auto pick = endpoint_bag[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(endpoint_bag.size()) - 1))];
      bool dup = pick == static_cast<NodeId>(v);
      for (const NodeId t : targets) dup = dup || t == pick;
      if (!dup) targets.push_back(pick);
    }
    if (targets.empty()) targets.push_back(static_cast<NodeId>(v - 1));
    for (const NodeId t : targets) {
      g.add_edge(static_cast<NodeId>(v), t, draw_latency(config, rng),
                 config.bandwidth);
      endpoint_bag.push_back(static_cast<NodeId>(v));
      endpoint_bag.push_back(t);
    }
  }
  return g;
}

Graph make_waxman(const TopologyConfig& config, util::RandomStream& rng) {
  const std::size_t n = config.nodes;
  Graph g(n);
  if (n <= 1) return g;

  // Place nodes on the unit square.
  std::vector<std::pair<double, double>> pos(n);
  for (auto& p : pos) p = {rng.uniform(), rng.uniform()};
  const double max_dist = std::sqrt(2.0);

  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const double dx = pos[a].first - pos[b].first;
      const double dy = pos[a].second - pos[b].second;
      const double d = std::sqrt(dx * dx + dy * dy);
      const double p = config.waxman_alpha *
                       std::exp(-d / (config.waxman_beta * max_dist));
      if (rng.bernoulli(p)) {
        g.add_edge(static_cast<NodeId>(a), static_cast<NodeId>(b),
                   draw_latency(config, rng), config.bandwidth);
      }
    }
  }
  // Stitch any disconnected prefix: connect node i to a random earlier
  // node if it ended up isolated from the BFS tree of node 0.  A simple
  // chain pass guarantees connectivity while barely perturbing degrees.
  for (std::size_t v = 1; v < n; ++v) {
    if (g.degree(static_cast<NodeId>(v)) == 0) {
      const auto t = static_cast<NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(v) - 1));
      g.add_edge(static_cast<NodeId>(v), t, draw_latency(config, rng),
                 config.bandwidth);
    }
  }
  if (!g.connected()) {
    // Rare with sane parameters: link consecutive components via a chain.
    for (std::size_t v = 1; v < n && !g.connected(); ++v) {
      if (!g.has_edge(static_cast<NodeId>(v - 1), static_cast<NodeId>(v))) {
        g.add_edge(static_cast<NodeId>(v - 1), static_cast<NodeId>(v),
                   draw_latency(config, rng), config.bandwidth);
      }
    }
  }
  return g;
}

Graph make_ring_lattice(const TopologyConfig& config,
                        util::RandomStream& rng) {
  const std::size_t n = config.nodes;
  const std::size_t k = std::max<std::size_t>(1, config.lattice_neighbors);
  Graph g(n);
  if (n <= 1) return g;
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t j = 1; j <= k; ++j) {
      const std::size_t w = (v + j) % n;
      if (v == w || g.has_edge(static_cast<NodeId>(v), static_cast<NodeId>(w))) {
        continue;
      }
      g.add_edge(static_cast<NodeId>(v), static_cast<NodeId>(w),
                 draw_latency(config, rng), config.bandwidth);
    }
  }
  return g;
}

Graph make_transit_stub(const TopologyConfig& config,
                        util::RandomStream& rng) {
  const std::size_t n = config.nodes;
  Graph g(n);
  if (n <= 1) return g;

  const std::size_t domains = std::max<std::size_t>(1, config.ts_transit_domains);
  const std::size_t per_domain = std::max<std::size_t>(1, config.ts_transit_size);
  const std::size_t transit_total = std::min(n, domains * per_domain);

  const double backbone_latency_scale =
      1.0 / std::max(1.0, config.ts_backbone_speedup);
  auto transit_latency = [&] {
    return backbone_latency_scale * draw_latency(config, rng);
  };

  // Transit domains: dense small cliques of routers [0, transit_total).
  for (std::size_t d = 0; d < domains; ++d) {
    const std::size_t lo = d * per_domain;
    const std::size_t hi = std::min(transit_total, lo + per_domain);
    for (std::size_t a = lo; a < hi; ++a) {
      for (std::size_t b = a + 1; b < hi; ++b) {
        g.add_edge(static_cast<NodeId>(a), static_cast<NodeId>(b),
                   transit_latency(), config.bandwidth);
      }
    }
  }
  // Backbone: ring over the domains (first router of each), plus one
  // random chord per domain when there are enough domains.
  for (std::size_t d = 0; d + 1 < domains && (d + 1) * per_domain < transit_total;
       ++d) {
    g.add_edge(static_cast<NodeId>(d * per_domain),
               static_cast<NodeId>((d + 1) * per_domain), transit_latency(),
               config.bandwidth);
  }
  if (domains > 2 && (domains - 1) * per_domain < transit_total) {
    g.add_edge(static_cast<NodeId>(0),
               static_cast<NodeId>((domains - 1) * per_domain),
               transit_latency(), config.bandwidth);
  }

  // Stub domains: remaining nodes grouped into chunks of ts_stub_size,
  // wired as a hub-plus-ring, hung off a random transit router.
  std::size_t next = transit_total;
  while (next < n) {
    const std::size_t size = std::min(config.ts_stub_size, n - next);
    const std::size_t hub = next;
    const auto attach = static_cast<NodeId>(rng.uniform_int(
        0, static_cast<std::int64_t>(transit_total) - 1));
    g.add_edge(static_cast<NodeId>(hub), attach, draw_latency(config, rng),
               config.bandwidth);
    for (std::size_t i = 1; i < size; ++i) {
      g.add_edge(static_cast<NodeId>(hub), static_cast<NodeId>(next + i),
                 draw_latency(config, rng), config.bandwidth);
      // Ring chord inside the stub for a little path diversity.
      if (i >= 2) {
        g.add_edge(static_cast<NodeId>(next + i),
                   static_cast<NodeId>(next + i - 1),
                   draw_latency(config, rng), config.bandwidth);
      }
    }
    next += size;
  }
  return g;
}

Graph make_star(const TopologyConfig& config, util::RandomStream& rng) {
  const std::size_t n = config.nodes;
  Graph g(n);
  for (std::size_t v = 1; v < n; ++v) {
    g.add_edge(0, static_cast<NodeId>(v), draw_latency(config, rng),
               config.bandwidth);
  }
  return g;
}

}  // namespace

Graph generate_topology(const TopologyConfig& config,
                        util::RandomStream& rng) {
  if (config.nodes == 0) {
    throw std::invalid_argument("generate_topology: zero nodes");
  }
  // Graph::add_edge checks each link too; this rejects a bad config
  // before any draw, also one with no links to add.
  if (!(config.latency_min >= 0.0) ||
      !(config.latency_max >= config.latency_min) ||
      !std::isfinite(config.latency_max) || !(config.bandwidth > 0.0) ||
      !std::isfinite(config.bandwidth)) {
    throw std::invalid_argument("generate_topology: bad link parameters");
  }
  Graph g;
  switch (config.kind) {
    case TopologyKind::kPreferentialAttachment:
      g = make_pref_attach(config, rng);
      break;
    case TopologyKind::kWaxman:
      g = make_waxman(config, rng);
      break;
    case TopologyKind::kRingLattice:
      g = make_ring_lattice(config, rng);
      break;
    case TopologyKind::kStar:
      g = make_star(config, rng);
      break;
    case TopologyKind::kTransitStub:
      g = make_transit_stub(config, rng);
      break;
  }
  return g;
}

}  // namespace scal::net
