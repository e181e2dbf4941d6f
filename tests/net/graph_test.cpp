#include "net/graph.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace scal::net {
namespace {

TEST(Graph, AddNodesAndEdges) {
  Graph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  g.add_edge(a, b, 1.5, 100.0);
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(a, b));
  EXPECT_TRUE(g.has_edge(b, a));
  EXPECT_EQ(g.degree(a), 1u);
}

TEST(Graph, NeighborsCarryLinkParameters) {
  Graph g(2);
  g.add_edge(0, 1, 2.5, 50.0);
  const auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 1u);
  EXPECT_EQ(nbrs[0].to, 1u);
  EXPECT_DOUBLE_EQ(nbrs[0].latency, 2.5);
  EXPECT_DOUBLE_EQ(nbrs[0].bandwidth, 50.0);
}

TEST(Graph, RejectsSelfLoop) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 0, 1.0, 1.0), std::invalid_argument);
}

TEST(Graph, RejectsOutOfRange) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 5, 1.0, 1.0), std::out_of_range);
}

TEST(Graph, RejectsBadLinkParameters) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 1, -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, 1.0, 0.0), std::invalid_argument);
}

TEST(Graph, RejectsNonFiniteLinkParameters) {
  // An infinite latency would leave the far end unreachable although the
  // graph is connected; an infinite bandwidth would make delay ignore
  // message size.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 1, kInf, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, kNaN, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, 1.0, kInf), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, 1.0, kNaN), std::invalid_argument);
  EXPECT_EQ(g.edge_count(), 0u);
  g.add_edge(0, 1, std::numeric_limits<double>::max(),
             std::numeric_limits<double>::max());  // finite: accepted
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, ConnectivityDetection) {
  Graph g(4);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(2, 3, 1, 1);
  EXPECT_FALSE(g.connected());
  g.add_edge(1, 2, 1, 1);
  EXPECT_TRUE(g.connected());
}

TEST(Graph, EmptyAndSingletonAreConnected) {
  EXPECT_TRUE(Graph().connected());
  EXPECT_TRUE(Graph(1).connected());
}

TEST(Graph, DegreeSequenceSortedDescending) {
  Graph g(4);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(0, 2, 1, 1);
  g.add_edge(0, 3, 1, 1);
  const auto deg = g.degree_sequence();
  EXPECT_EQ(deg, (std::vector<std::size_t>{3, 1, 1, 1}));
}

}  // namespace
}  // namespace scal::net
