#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace scal::net {
namespace {

class TopologyKindTest
    : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(TopologyKindTest, GeneratesConnectedGraphOfRequestedSize) {
  TopologyConfig config;
  config.kind = GetParam();
  for (const std::size_t n : {5ul, 40ul, 200ul}) {
    config.nodes = n;
    util::RandomStream rng(42, "topo-test");
    const Graph g = generate_topology(config, rng);
    EXPECT_EQ(g.node_count(), n) << to_string(config.kind);
    EXPECT_TRUE(g.connected()) << to_string(config.kind) << " n=" << n;
  }
}

TEST_P(TopologyKindTest, DeterministicForSameSeed) {
  TopologyConfig config;
  config.kind = GetParam();
  config.nodes = 60;
  util::RandomStream rng1(7, "t");
  util::RandomStream rng2(7, "t");
  const Graph a = generate_topology(config, rng1);
  const Graph b = generate_topology(config, rng2);
  EXPECT_EQ(a.edge_count(), b.edge_count());
  EXPECT_EQ(a.degree_sequence(), b.degree_sequence());
}

TEST_P(TopologyKindTest, LatenciesWithinConfiguredRange) {
  TopologyConfig config;
  config.kind = GetParam();
  config.nodes = 50;
  config.latency_min = 0.5;
  config.latency_max = 2.0;
  config.ts_backbone_speedup = 1.0;  // transit links otherwise go below min
  util::RandomStream rng(11, "t");
  const Graph g = generate_topology(config, rng);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (const Link& l : g.neighbors(v)) {
      EXPECT_GE(l.latency, 0.5);
      EXPECT_LE(l.latency, 2.0);
      EXPECT_DOUBLE_EQ(l.bandwidth, config.bandwidth);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, TopologyKindTest,
    ::testing::Values(TopologyKind::kPreferentialAttachment,
                      TopologyKind::kWaxman, TopologyKind::kRingLattice,
                      TopologyKind::kStar, TopologyKind::kTransitStub),
    [](const auto& info) {
      std::string name = to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Topology, PrefAttachHasHeavyTail) {
  TopologyConfig config;
  config.nodes = 400;
  config.pa_edges_per_node = 2;
  util::RandomStream rng(42, "t");
  const Graph g = generate_topology(config, rng);
  const auto deg = g.degree_sequence();
  // Hubs exist: the max degree is much larger than the median.
  EXPECT_GE(deg.front(), 4 * deg[deg.size() / 2]);
}

TEST(Topology, StarHasSingleHub) {
  TopologyConfig config;
  config.kind = TopologyKind::kStar;
  config.nodes = 10;
  util::RandomStream rng(1, "t");
  const Graph g = generate_topology(config, rng);
  EXPECT_EQ(g.degree(0), 9u);
  EXPECT_EQ(g.edge_count(), 9u);
}

TEST(Topology, RingLatticeIsRegular) {
  TopologyConfig config;
  config.kind = TopologyKind::kRingLattice;
  config.nodes = 20;
  config.lattice_neighbors = 2;
  util::RandomStream rng(1, "t");
  const Graph g = generate_topology(config, rng);
  for (NodeId v = 0; v < g.node_count(); ++v) EXPECT_EQ(g.degree(v), 4u);
}

TEST(Topology, SingleNodeGraph) {
  TopologyConfig config;
  config.nodes = 1;
  util::RandomStream rng(1, "t");
  const Graph g = generate_topology(config, rng);
  EXPECT_EQ(g.node_count(), 1u);
  EXPECT_TRUE(g.connected());
}

TEST(Topology, RejectsZeroNodes) {
  TopologyConfig config;
  config.nodes = 0;
  util::RandomStream rng(1, "t");
  EXPECT_THROW(generate_topology(config, rng), std::invalid_argument);
}

TEST(Topology, RejectsBadLinkParams) {
  TopologyConfig config;
  config.nodes = 10;
  config.latency_max = config.latency_min - 1.0;
  util::RandomStream rng(1, "t");
  EXPECT_THROW(generate_topology(config, rng), std::invalid_argument);
}

TEST(Topology, RejectsNonFiniteLinkParams) {
  // An infinite latency_max would build a connected graph whose routes
  // are all unreachable; an infinite bandwidth would make delay ignore
  // message size.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  TopologyConfig config;
  config.nodes = 50;
  util::RandomStream rng(1, "t");
  config.latency_max = kInf;
  EXPECT_THROW(generate_topology(config, rng), std::invalid_argument);
  config.latency_min = kInf;
  EXPECT_THROW(generate_topology(config, rng), std::invalid_argument);
  config = TopologyConfig{};
  config.bandwidth = kInf;
  EXPECT_THROW(generate_topology(config, rng), std::invalid_argument);
}

}  // namespace
}  // namespace scal::net
