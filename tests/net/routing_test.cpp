#include "net/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "net/tree_cache.hpp"
#include "support/settle_count.hpp"

namespace scal::net {
namespace {

/// Brute-force Bellman-Ford distances for cross-checking Dijkstra.
std::vector<double> bellman_ford(const Graph& g, NodeId src) {
  std::vector<double> dist(g.node_count(),
                           std::numeric_limits<double>::infinity());
  dist[src] = 0.0;
  for (std::size_t pass = 0; pass + 1 < g.node_count(); ++pass) {
    bool relaxed = false;
    for (NodeId u = 0; u < g.node_count(); ++u) {
      if (dist[u] == std::numeric_limits<double>::infinity()) continue;
      for (const Link& l : g.neighbors(u)) {
        if (dist[u] + l.latency < dist[l.to]) {
          dist[l.to] = dist[u] + l.latency;
          relaxed = true;
        }
      }
    }
    if (!relaxed) break;
  }
  return dist;
}

using test::SettleCount;

constexpr double kInf = std::numeric_limits<double>::infinity();

Graph line_graph() {
  Graph g(4);
  g.add_edge(0, 1, 1.0, 10.0);
  g.add_edge(1, 2, 2.0, 20.0);
  g.add_edge(2, 3, 3.0, 30.0);
  return g;
}

TEST(Router, LineGraphAccumulatesLatencyAndBandwidth) {
  const Graph g = line_graph();
  Router router(g);
  const RouteInfo info = router.route(0, 3);
  EXPECT_DOUBLE_EQ(info.latency, 6.0);
  EXPECT_DOUBLE_EQ(info.inv_bandwidth, 1.0 / 10 + 1.0 / 20 + 1.0 / 30);
}

TEST(Router, DelayIncludesTransmission) {
  const Graph g = line_graph();
  Router router(g);
  const double d = router.delay(0, 3, 60.0);
  EXPECT_DOUBLE_EQ(d, 6.0 + 60.0 * (1.0 / 10 + 1.0 / 20 + 1.0 / 30));
}

TEST(Router, SelfDelayIsZero) {
  const Graph g = line_graph();
  Router router(g);
  EXPECT_DOUBLE_EQ(router.delay(2, 2, 100.0), 0.0);
}

TEST(Router, PicksShorterOfTwoPaths) {
  Graph g(3);
  g.add_edge(0, 1, 1.0, 1.0);
  g.add_edge(1, 2, 1.0, 1.0);
  g.add_edge(0, 2, 5.0, 1.0);  // direct but slower
  Router router(g);
  const RouteInfo info = router.route(0, 2);
  EXPECT_DOUBLE_EQ(info.latency, 2.0);
  EXPECT_DOUBLE_EQ(info.inv_bandwidth, 2.0);  // two unit-bandwidth links
}

TEST(Router, UnreachableDetected) {
  Graph g(3);
  g.add_edge(0, 1, 1.0, 1.0);
  Router router(g);
  EXPECT_EQ(router.route(0, 2).latency, kInf);
  EXPECT_THROW(router.delay(0, 2, 1.0), std::runtime_error);
}

TEST(Router, MatchesBellmanFordOnRandomTopology) {
  TopologyConfig config;
  config.nodes = 120;
  util::RandomStream rng(42, "routing-test");
  const Graph g = generate_topology(config, rng);
  Router router(g);
  for (const NodeId src : {NodeId{0}, NodeId{17}, NodeId{119}}) {
    const auto expect = bellman_ford(g, src);
    for (NodeId dst = 0; dst < g.node_count(); ++dst) {
      EXPECT_NEAR(router.route(src, dst).latency, expect[dst], 1e-9)
          << src << "->" << dst;
    }
  }
}

TEST(Router, CachesSourceTrees) {
  const Graph g = line_graph();
  Router router(g);
  const SettleCount settles(router);
  EXPECT_EQ(settles(), 0u);
  router.route(0, 3);
  router.route(0, 1);  // settled on the way to 3
  EXPECT_EQ(settles(), 1u);
  router.route(2, 0);
  EXPECT_EQ(settles(), 2u);
  router.route(2, 1);  // settled on the way to 0
  (void)router.delay(0, 2, 1.0);
  EXPECT_EQ(settles(), 2u);
}

TEST(Router, RejectsOutOfRange) {
  const Graph g = line_graph();
  Router router(g);
  EXPECT_THROW(router.route(0, 99), std::out_of_range);
  EXPECT_THROW(router.route(99, 0), std::out_of_range);
  EXPECT_THROW(router.delay(0, 99, 1.0), std::out_of_range);
  EXPECT_THROW(router.delay(99, 0, 1.0), std::out_of_range);
}

TEST(Router, SelfDelayChecksTheNode) {
  // src == dst costs nothing, but only for a node of the graph.
  const Graph g = line_graph();
  Router router(g);
  const SettleCount settles(router);
  EXPECT_EQ(router.delay(3, 3, 1.0), 0.0);
  EXPECT_EQ(settles(), 0u);  // answered without a tree
  EXPECT_THROW(router.delay(4, 4, 1.0), std::out_of_range);
  EXPECT_THROW(router.delay(99, 99, 1.0), std::out_of_range);
}

TEST(Router, ColdRouterRepeatsWarmDelays) {
  // The schedulers re-query the same pairs every update interval; a
  // second router over the same graph, settling its trees from cold,
  // must reproduce the first one's delays bit for bit.
  TopologyConfig config;
  config.nodes = 90;
  util::RandomStream rng(7, "routing-clear-test");
  const Graph g = generate_topology(config, rng);
  Router warm(g);
  std::vector<double> before;
  for (NodeId src = 0; src < g.node_count(); src += 3) {
    for (NodeId dst = 1; dst < g.node_count(); dst += 11) {
      if (src != dst) before.push_back(warm.delay(src, dst, 2.0));
    }
  }
  Router cold(g);
  std::size_t i = 0;
  for (NodeId src = 0; src < g.node_count(); src += 3) {
    for (NodeId dst = 1; dst < g.node_count(); dst += 11) {
      if (src != dst) {
        EXPECT_EQ(cold.delay(src, dst, 2.0), before[i]);
        EXPECT_EQ(warm.delay(src, dst, 2.0), before[i++])
            << src << "->" << dst;
      }
    }
  }
}

TEST(Router, LazySettlingMatchesFullSearchInAnyQueryOrder) {
  // The per-source tree settles only as far as each query needs; the
  // settled prefix must equal the full Dijkstra run no matter the order
  // destinations are asked in (near-first, far-first, interleaved).
  TopologyConfig config;
  config.nodes = 120;
  util::RandomStream rng(42, "routing-test");  // same graph as above
  const Graph g = generate_topology(config, rng);

  Router eager(g);
  std::vector<double> full(g.node_count());
  for (NodeId dst = 0; dst < g.node_count(); ++dst) {
    full[dst] = eager.route(17, dst).latency;  // one pass settles all
  }

  Router lazy(g);
  // Far-first, then a descending sweep, then re-query everything.
  (void)lazy.route(17, 119);
  for (NodeId dst = g.node_count(); dst-- > 0;) {
    EXPECT_NEAR(lazy.route(17, dst).latency, full[dst], 1e-12)
        << "17->" << dst;
  }
  for (NodeId dst = 0; dst < g.node_count(); ++dst) {
    EXPECT_NEAR(lazy.route(17, dst).latency, full[dst], 1e-12);
  }
}

TEST(Router, UnreachableThrowAfterPartialSettleAndCacheStaysUsable) {
  // Two components: queries inside the source's component settle
  // lazily; an unreachable destination then exhausts the frontier and
  // throws, and the exhausted tree still answers reachable queries.
  Graph g(5);
  g.add_edge(0, 1, 1.0, 1.0);
  g.add_edge(1, 2, 1.0, 1.0);
  g.add_edge(3, 4, 1.0, 1.0);  // disconnected island
  Router router(g);
  const SettleCount settles(router);
  EXPECT_DOUBLE_EQ(router.delay(0, 1, 0.0), 1.0);
  EXPECT_THROW(router.delay(0, 4, 1.0), std::runtime_error);
  EXPECT_EQ(settles(), 2u);
  // The exhausted tree answers the rest without settling again.
  EXPECT_THROW(router.delay(0, 3, 1.0), std::runtime_error);
  EXPECT_DOUBLE_EQ(router.delay(0, 2, 0.0), 2.0);
  EXPECT_EQ(router.route(0, 2).inv_bandwidth, 2.0);
  EXPECT_EQ(settles(), 2u);
}

// --- Bitwise oracle --------------------------------------------------
//
// A textbook Dijkstra that shares no code with src/net/routing.cpp: its
// own dist array, a std::priority_queue over (dist, node), strict `<`
// relaxation in adjacency order.  The router must agree with it bit for
// bit in every query order, shared or not: the order of pops is fixed
// by (dist, node), so any exact implementation chooses the same tree.

struct OracleRoute {
  /// +inf until reached.
  double latency = std::numeric_limits<double>::infinity();
  double inv_bandwidth = 0.0;
};

std::vector<OracleRoute> oracle_routes(const Graph& g, NodeId src) {
  std::vector<double> dist(g.node_count(), kInf);
  std::vector<double> inv_bandwidth(g.node_count(), 0.0);
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  dist[src] = 0.0;
  queue.emplace(0.0, src);
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > dist[u]) continue;  // superseded entry
    for (const Link& l : g.neighbors(u)) {
      if (d + l.latency < dist[l.to]) {
        dist[l.to] = d + l.latency;
        inv_bandwidth[l.to] = inv_bandwidth[u] + 1.0 / l.bandwidth;
        queue.emplace(dist[l.to], l.to);
      }
    }
  }
  std::vector<OracleRoute> routes(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    routes[v] = {dist[v], inv_bandwidth[v]};
  }
  return routes;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

using Query = std::pair<NodeId, NodeId>;
enum class Order { kNearFirst, kFarFirst, kInterleaved };

/// Every (src, dst) pair of `g` in `order`.  Near-first asks each
/// source's destinations by ascending oracle distance (ties by id,
/// unreachable last), far-first the reverse; interleaved alternates the
/// nearest and farthest remaining destination and takes the sources
/// round-robin.
std::vector<Query> queries(const std::vector<std::vector<OracleRoute>>& oracle,
                           Order order) {
  const auto n = static_cast<NodeId>(oracle.size());
  std::vector<std::vector<NodeId>> per_source(n);
  for (NodeId src = 0; src < n; ++src) {
    std::vector<NodeId> near(n);
    for (NodeId v = 0; v < n; ++v) near[v] = v;
    std::sort(near.begin(), near.end(), [&](NodeId a, NodeId b) {
      const double la = oracle[src][a].latency;
      const double lb = oracle[src][b].latency;
      return la != lb ? la < lb : a < b;
    });
    std::vector<NodeId>& dsts = per_source[src];
    if (order == Order::kNearFirst) dsts = near;
    if (order == Order::kFarFirst) dsts.assign(near.rbegin(), near.rend());
    if (order == Order::kInterleaved) {
      for (std::size_t lo = 0, hi = n; lo < hi;) {
        dsts.push_back(near[lo++]);
        if (lo < hi) dsts.push_back(near[--hi]);
      }
    }
  }
  std::vector<Query> out;
  if (order == Order::kInterleaved) {
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId src = 0; src < n; ++src) {
        out.emplace_back(src, per_source[src][i]);
      }
    }
  } else {
    for (NodeId src = 0; src < n; ++src) {
      for (const NodeId dst : per_source[src]) out.emplace_back(src, dst);
    }
  }
  return out;
}

/// Asks `router` each query in turn — route() first on even queries,
/// delay() first on odd ones, so both drive the lazy settling — and
/// expects the oracle's bits: the latency and inverse-bandwidth sums,
/// reachability, and delay = latency + size * inv_bandwidth.
void expect_oracle_bits(const Router& router,
                        const std::vector<std::vector<OracleRoute>>& oracle,
                        const std::vector<Query>& asked,
                        const std::string& label) {
  constexpr double kSize = 3.0;
  for (std::size_t i = 0; i < asked.size(); ++i) {
    const auto [src, dst] = asked[i];
    const OracleRoute& want = oracle[src][dst];
    const bool want_reachable = want.latency != kInf;
    const double want_delay =
        src == dst ? 0.0 : want.latency + kSize * want.inv_bandwidth;
    const auto check_delay = [&] {
      if (want_reachable) {
        EXPECT_EQ(bits(router.delay(src, dst, kSize)), bits(want_delay))
            << label << " " << src << "->" << dst;
      } else {
        EXPECT_THROW(router.delay(src, dst, kSize), std::runtime_error)
            << label << " " << src << "->" << dst;
      }
    };
    if (i % 2 == 1) check_delay();
    const RouteInfo got = router.route(src, dst);
    EXPECT_EQ(bits(got.latency), bits(want.latency))  // +inf: unreachable
        << label << " " << src << "->" << dst;
    EXPECT_EQ(bits(got.inv_bandwidth), bits(want.inv_bandwidth))
        << label << " " << src << "->" << dst;
    if (i % 2 == 0) check_delay();
  }
}

/// An unshared router, a sharing writer that asks only the first third
/// of the queries (leaving shallow trees in the shared cache), and an
/// adopting reader that asks them all, in each of the three orders.
void expect_oracle_bits_in_every_order(const Graph& g) {
  std::vector<std::vector<OracleRoute>> oracle;
  for (NodeId src = 0; src < g.node_count(); ++src) {
    oracle.push_back(oracle_routes(g, src));
  }
  const std::pair<Order, const char*> orders[] = {
      {Order::kNearFirst, "near-first"},
      {Order::kFarFirst, "far-first"},
      {Order::kInterleaved, "interleaved"}};
  for (const auto& [order, name] : orders) {
    const std::vector<Query> asked = queries(oracle, order);
    const std::string label(name);

    const Router plain(g);
    expect_oracle_bits(plain, oracle, asked, label + " unshared");

    SharedTreeCache::instance().clear();
    Router writer(g);
    writer.share_trees();
    const std::vector<Query> prefix(asked.begin(),
                                    asked.begin() + asked.size() / 3);
    expect_oracle_bits(writer, oracle, prefix, label + " writer");
    ASSERT_GT(SharedTreeCache::instance().publishes(), 0u) << label;

    Router reader(g);
    reader.share_trees();
    expect_oracle_bits(reader, oracle, asked, label + " reader");
    EXPECT_GT(SharedTreeCache::instance().shares(), 0u) << label;
  }
}

/// Asks a sharing router each query in each of the three orders and,
/// after each, reads the source's tree back from the shared cache.  The
/// router settles in (distance, node) order and stops right after the
/// destination, and the cache keeps the deepest tree a source has
/// published, so the cached tree has settled exactly the reachable
/// nodes ranked at or before the farthest destination asked of that
/// source so far: every reachable node once an unreachable one was
/// asked.  Positive link latencies make the rank exact (a zero-latency
/// link could reach an equally distant node only after the destination).
/// `exhausted` is left out: the cache keeps the first of two equally
/// deep trees, which may lack the later one's flag.
void expect_settle_depth_in_every_order(const Graph& g) {
  const auto n = static_cast<NodeId>(g.node_count());
  std::vector<std::vector<OracleRoute>> oracle;
  for (NodeId src = 0; src < n; ++src) {
    oracle.push_back(oracle_routes(g, src));
  }
  // rank[src][dst]: reachable nodes v with (latency[v], v) <=
  // (latency[dst], dst); for an unreachable dst, every reachable node.
  std::vector<std::vector<std::size_t>> rank(n, std::vector<std::size_t>(n));
  for (NodeId src = 0; src < n; ++src) {
    const std::vector<OracleRoute>& from = oracle[src];
    for (NodeId dst = 0; dst < n; ++dst) {
      for (NodeId v = 0; v < n; ++v) {
        if (from[v].latency == kInf) continue;
        const bool at_or_before =
            from[dst].latency == kInf || from[v].latency < from[dst].latency ||
            (from[v].latency == from[dst].latency && v <= dst);
        rank[src][dst] += at_or_before ? 1 : 0;
      }
    }
  }
  const std::pair<Order, const char*> orders[] = {
      {Order::kNearFirst, "near-first"},
      {Order::kFarFirst, "far-first"},
      {Order::kInterleaved, "interleaved"}};
  const SharedTreeCache::Key topology = graph_digest(g);
  for (const auto& [order, name] : orders) {
    SharedTreeCache::instance().clear();
    Router router(g);
    router.share_trees();
    std::vector<std::size_t> deepest(n, 0);
    for (const auto& [src, dst] : queries(oracle, order)) {
      (void)router.route(src, dst);
      deepest[src] = std::max(deepest[src], rank[src][dst]);
      const auto tree = SharedTreeCache::instance().lookup(topology, src);
      ASSERT_NE(tree, nullptr) << name << " " << src << "->" << dst;
      EXPECT_EQ(tree->settled_count, deepest[src])
          << name << " " << src << "->" << dst;
    }
  }
}

Graph preferential_attachment_graph() {
  TopologyConfig config;
  config.nodes = 120;
  util::RandomStream rng(42, "routing-oracle");
  return generate_topology(config, rng);
}

Graph transit_stub_graph() {
  TopologyConfig config;
  config.kind = TopologyKind::kTransitStub;
  config.nodes = 90;
  util::RandomStream rng(5, "routing-oracle");
  return generate_topology(config, rng);
}

/// An 8x8 grid of unit-latency links with chords of latency 2, so most
/// nodes have several shortest paths; bandwidths vary per link, so the
/// strict-`<` tie rule (first relaxed predecessor wins) shows in the
/// inverse-bandwidth sum.  Three more nodes form an unreachable island.
Graph tie_heavy_grid() {
  constexpr NodeId kSide = 8;
  Graph g(kSide * kSide + 3);
  const auto at = [](NodeId r, NodeId c) { return r * kSide + c; };
  for (NodeId r = 0; r < kSide; ++r) {
    for (NodeId c = 0; c < kSide; ++c) {
      const double bandwidth = 1.0 + (r * 7 + c * 3) % 5;
      if (c + 1 < kSide) g.add_edge(at(r, c), at(r, c + 1), 1.0, bandwidth);
      if (r + 1 < kSide) {
        g.add_edge(at(r, c), at(r + 1, c), 1.0, bandwidth + 2.0);
      }
      if (r + 1 < kSide && c + 1 < kSide && (r + c) % 3 == 0) {
        g.add_edge(at(r, c), at(r + 1, c + 1), 2.0, 3.0);
      }
    }
  }
  g.add_edge(kSide * kSide, kSide * kSide + 1, 1.0, 1.0);
  g.add_edge(kSide * kSide + 1, kSide * kSide + 2, 1.0, 2.0);
  return g;
}

class RoutingOracle : public ::testing::Test {
 protected:
  void SetUp() override { SharedTreeCache::instance().clear(); }
  void TearDown() override { SharedTreeCache::instance().clear(); }
};

TEST_F(RoutingOracle, PreferentialAttachmentTopology) {
  expect_oracle_bits_in_every_order(preferential_attachment_graph());
}

TEST_F(RoutingOracle, TransitStubTopology) {
  expect_oracle_bits_in_every_order(transit_stub_graph());
}

TEST_F(RoutingOracle, TieHeavyIntegerLatencies) {
  expect_oracle_bits_in_every_order(tie_heavy_grid());
}

TEST_F(RoutingOracle, SettleDepthIsRankOfFarthestQuery) {
  expect_settle_depth_in_every_order(preferential_attachment_graph());
  expect_settle_depth_in_every_order(transit_stub_graph());
  expect_settle_depth_in_every_order(tie_heavy_grid());
}

}  // namespace
}  // namespace scal::net
