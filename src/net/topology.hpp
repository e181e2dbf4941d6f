#pragma once
// Synthetic topology generation.
//
// The paper extracts topologies from the Mercator Internet mapper [16],
// which is unavailable (it probed the 2000-era Internet).  Router-level
// Mercator maps exhibit heavy-tailed degree distributions, so our primary
// substitute is a preferential-attachment generator; Waxman and ring-
// lattice generators are provided for sensitivity tests.  All generators
// are seeded and deterministic and always produce connected graphs.

#include <cstdint>
#include <string>

#include "net/graph.hpp"
#include "util/rng.hpp"

namespace scal::net {

enum class TopologyKind {
  kPreferentialAttachment,  ///< Barabasi-Albert style; power-law degrees
  kWaxman,                  ///< geometric random graph, Waxman link prob.
  kRingLattice,             ///< ring + chords; regular degrees (tests)
  kStar,                    ///< hub and spokes (tests, CENTRAL worst case)
  kTransitStub,             ///< hierarchical transit/stub domains; the
                            ///< closest structural match to the Mercator
                            ///< router-level maps the paper extracted
};

std::string to_string(TopologyKind kind);

struct TopologyConfig {
  TopologyKind kind = TopologyKind::kPreferentialAttachment;
  std::size_t nodes = 100;

  /// Preferential attachment: edges added per new node.
  std::size_t pa_edges_per_node = 2;

  /// Waxman parameters (alpha: max link prob, beta: distance decay).
  double waxman_alpha = 0.4;
  double waxman_beta = 0.25;

  /// Ring lattice: neighbors on each side.
  std::size_t lattice_neighbors = 2;

  /// Transit-stub: transit domains form a backbone ring with chords;
  /// each transit node hangs stub domains of roughly this size.
  std::size_t ts_transit_domains = 3;
  std::size_t ts_transit_size = 4;   ///< nodes per transit domain
  std::size_t ts_stub_size = 8;      ///< target nodes per stub domain
  /// Transit links are this much faster (lower latency) than stub links.
  double ts_backbone_speedup = 4.0;

  /// Link latency drawn uniform from [latency_min, latency_max].  The
  /// defaults keep end-to-end control latency small relative to job
  /// service times so the efficiency band stays holdable when Case 2
  /// shrinks service times 6x (see EXPERIMENTS.md).
  double latency_min = 0.1;
  double latency_max = 0.5;
  /// All links share this bandwidth (size units / time unit).
  double bandwidth = 100.0;
};

/// Generate a connected topology from the config and RNG stream.
/// Throws std::invalid_argument for zero nodes, or unless 0 <=
/// latency_min <= latency_max < inf and 0 < bandwidth < inf.
Graph generate_topology(const TopologyConfig& config,
                        util::RandomStream& rng);

}  // namespace scal::net
