#include "net/tree_cache.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "support/settle_count.hpp"
#include "util/rng.hpp"

namespace scal::net {
namespace {

Graph test_graph(std::size_t nodes = 60, std::uint64_t seed = 7) {
  TopologyConfig tc;
  tc.nodes = nodes;
  util::RandomStream rng(seed, "tree-cache-test");
  return generate_topology(tc, rng);
}

using test::SettleCount;

/// The shared cache is process-wide; every test starts and ends clean
/// so ordering (and the session tests that also share it) never leaks.
class TreeCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { SharedTreeCache::instance().clear(); }
  void TearDown() override {
    SharedTreeCache::instance().clear();
    SharedTreeCache::instance().set_max_bytes(0);
  }
};

TEST_F(TreeCacheTest, GraphDigestIsStableAndStructureSensitive) {
  const Graph a = test_graph();
  const Graph b = test_graph();
  EXPECT_EQ(graph_digest(a), graph_digest(b));  // same build, same digest
  const Graph c = test_graph(60, 8);            // different topology seed
  EXPECT_NE(graph_digest(a), graph_digest(c));
  const Graph d = test_graph(61, 7);            // different size
  EXPECT_NE(graph_digest(a), graph_digest(d));
}

TEST_F(TreeCacheTest, PublishThenLookupReturnsSnapshot) {
  SharedTreeCache& cache = SharedTreeCache::instance();
  const SharedTreeCache::Key key{1, 2};
  EXPECT_EQ(cache.lookup(key, 0), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  auto snap = std::make_shared<SourceTree>();
  snap->settled_count = 3;
  const auto stored = cache.publish(key, 0, snap);
  EXPECT_EQ(stored, snap);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.publishes(), 1u);

  EXPECT_EQ(cache.lookup(key, 0), snap);
  EXPECT_EQ(cache.shares(), 1u);
  // Different source / different topology are distinct entries.
  EXPECT_EQ(cache.lookup(key, 1), nullptr);
  EXPECT_EQ(cache.lookup(SharedTreeCache::Key{9, 9}, 0), nullptr);
}

TEST_F(TreeCacheTest, FirstPublishWinsUnlessStrictlyDeeper) {
  SharedTreeCache& cache = SharedTreeCache::instance();
  const SharedTreeCache::Key key{1, 2};
  auto shallow = std::make_shared<SourceTree>();
  shallow->settled_count = 5;
  cache.publish(key, 0, shallow);

  // Equal depth: the canonical first entry is kept.
  auto rival = std::make_shared<SourceTree>();
  rival->settled_count = 5;
  EXPECT_EQ(cache.publish(key, 0, rival), shallow);
  EXPECT_EQ(cache.upgrades(), 0u);

  // Strictly deeper: replaces.
  auto deeper = std::make_shared<SourceTree>();
  deeper->settled_count = 6;
  EXPECT_EQ(cache.publish(key, 0, deeper), deeper);
  EXPECT_EQ(cache.upgrades(), 1u);
  EXPECT_EQ(cache.lookup(key, 0), deeper);
}

TEST_F(TreeCacheTest, SharedRoutesAreBitIdenticalToUnshared) {
  const Graph graph = test_graph();
  const auto n = static_cast<NodeId>(graph.node_count());
  const SharedTreeCache& cache = SharedTreeCache::instance();

  Router plain(graph);
  Router writer(graph);
  writer.share_trees();
  // Writer settles (and publishes) everything; the reader then adopts.
  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n; ++dst) {
      const RouteInfo a = plain.route(src, dst);
      const RouteInfo b = writer.route(src, dst);
      EXPECT_EQ(a.latency, b.latency);  // bitwise: same settles
      EXPECT_EQ(a.inv_bandwidth, b.inv_bandwidth);
    }
  }
  ASSERT_GT(cache.publishes(), 0u);
  EXPECT_EQ(cache.misses(), n);  // one first-touch lookup per source
  EXPECT_EQ(cache.shares(), 0u);

  Router reader(graph);
  reader.share_trees();
  const SettleCount reader_settles(reader);
  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n; ++dst) {
      const RouteInfo a = plain.route(src, dst);
      const RouteInfo b = reader.route(src, dst);
      EXPECT_EQ(a.latency, b.latency);
      EXPECT_EQ(a.inv_bandwidth, b.inv_bandwidth);
      EXPECT_EQ(plain.delay(src, dst, 4.0), reader.delay(src, dst, 4.0));
    }
  }
  // The reader answered everything from adopted trees.
  EXPECT_EQ(reader_settles(), 0u);
  EXPECT_EQ(cache.shares(), n);
  EXPECT_EQ(cache.misses(), n);
}

TEST_F(TreeCacheTest, WriterHoldsThePublishedTreeItself) {
  // A sharing router's slot and the cache hold one tree, not two copies.
  const Graph graph = test_graph();
  SharedTreeCache& cache = SharedTreeCache::instance();
  auto writer = std::make_unique<Router>(graph);
  writer->share_trees();
  (void)writer->route(0, 5);
  const auto tree = cache.lookup(graph_digest(graph), 0);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree.use_count(), 3);  // the cache, the writer's slot, `tree`
  writer.reset();
  EXPECT_EQ(tree.use_count(), 2);
}

TEST_F(TreeCacheTest, AdoptedShallowSnapshotIsClonedAndExtended) {
  const Graph graph = test_graph();
  const auto key = graph_digest(graph);
  SharedTreeCache& cache = SharedTreeCache::instance();

  // Publish a shallow tree: settled only far enough for dst=1.
  Router writer(graph);
  writer.share_trees();
  (void)writer.route(0, 1);
  ASSERT_EQ(cache.publishes(), 1u);
  const auto snap = cache.lookup(key, 0);
  ASSERT_NE(snap, nullptr);
  const std::size_t shallow_depth = snap->settled_count;
  const auto far = static_cast<NodeId>(graph.node_count() - 1);
  ASSERT_FALSE(snap->settled[far] || snap->exhausted);

  // A reader needing a deeper destination adopts the tree, then settles
  // a copy of it further and publishes that.
  Router reader(graph);
  reader.share_trees();
  const SettleCount reader_settles(reader);
  Router plain(graph);
  const RouteInfo expect = plain.route(0, far);
  const RouteInfo got = reader.route(0, far);
  EXPECT_EQ(expect.latency, got.latency);
  EXPECT_EQ(expect.inv_bandwidth, got.inv_bandwidth);
  EXPECT_EQ(reader_settles(), 1u);
  EXPECT_EQ(cache.shares(), 2u);  // the lookup above and the reader's
  EXPECT_EQ(cache.publishes(), 2u);
  EXPECT_EQ(cache.upgrades(), 1u);
  // The adopted tree itself never mutated; the reader's deeper copy
  // replaced it in the cache (strictly-deeper upgrade).
  EXPECT_EQ(snap->settled_count, shallow_depth);
  const auto upgraded = cache.lookup(key, 0);
  EXPECT_GT(upgraded->settled_count, shallow_depth);
  EXPECT_TRUE(upgraded->settled[far]);
  // A destination inside the adopted prefix needs no settling.
  (void)reader.route(0, 1);
  EXPECT_EQ(reader_settles(), 1u);
}

TEST_F(TreeCacheTest, ByteBudgetEvictsOldestFirst) {
  SharedTreeCache& cache = SharedTreeCache::instance();
  auto sized = [](std::size_t n) {
    auto tree = std::make_shared<SourceTree>();
    tree->info.resize(n);
    tree->settled_count = 1;
    return tree;
  };
  const std::size_t unit = sized(100)->bytes();
  cache.set_max_bytes(2 * unit);
  cache.publish(SharedTreeCache::Key{1, 1}, 0, sized(100));
  cache.publish(SharedTreeCache::Key{1, 1}, 1, sized(100));
  EXPECT_EQ(cache.size(), 2u);
  cache.publish(SharedTreeCache::Key{1, 1}, 2, sized(100));
  EXPECT_EQ(cache.size(), 2u);  // FIFO: src 0 evicted
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.lookup(SharedTreeCache::Key{1, 1}, 0), nullptr);
  EXPECT_NE(cache.lookup(SharedTreeCache::Key{1, 1}, 2), nullptr);
  EXPECT_LE(cache.bytes(), 2 * unit);

  // An entry larger than the whole budget is handed back unstored.
  const auto big = sized(100000);
  EXPECT_EQ(cache.publish(SharedTreeCache::Key{2, 2}, 0, big), big);
  EXPECT_EQ(cache.lookup(SharedTreeCache::Key{2, 2}, 0), nullptr);
}

TEST_F(TreeCacheTest, ConcurrentRoutersAgreeWithSerialReference) {
  const Graph graph = test_graph(80);
  const auto n = static_cast<NodeId>(graph.node_count());

  // Serial reference delays, computed without sharing.
  Router plain(graph);
  std::vector<double> expect;
  for (NodeId src = 0; src < n; src += 3) {
    for (NodeId dst = 0; dst < n; dst += 5) {
      expect.push_back(src == dst ? 0.0 : plain.delay(src, dst, 1.0));
    }
  }

  constexpr int kThreads = 8;
  std::vector<std::vector<double>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread owns its router (the SessionPool slot discipline);
      // only the SharedTreeCache is shared state.
      Router router(graph);
      router.share_trees();
      for (NodeId src = 0; src < n; src += 3) {
        for (NodeId dst = 0; dst < n; dst += 5) {
          got[static_cast<std::size_t>(t)].push_back(
              src == dst ? 0.0 : router.delay(src, dst, 1.0));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[static_cast<std::size_t>(t)].size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      // Bitwise equality: adopted prefixes must replay the same settles.
      EXPECT_EQ(got[static_cast<std::size_t>(t)][i], expect[i])
          << "thread " << t << " query " << i;
    }
  }
}

}  // namespace
}  // namespace scal::net
