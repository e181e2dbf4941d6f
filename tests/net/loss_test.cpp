#include <gtest/gtest.h>

#include "net/network.hpp"

namespace scal::net {
namespace {

Graph pair_graph() {
  Graph g(2);
  g.add_edge(0, 1, 1.0, 100.0);
  return g;
}

TEST(NetworkLoss, DisabledByDefault) {
  sim::Simulator sim;
  const Graph g = pair_graph();
  Router router(g);
  Network net(sim, 0, router);
  int delivered = 0;
  for (int i = 0; i < 100; ++i) {
    net.send_unreliable(0, 1, 1.0, [&] { ++delivered; });
  }
  sim.run();
  EXPECT_EQ(delivered, 100);
  EXPECT_EQ(net.messages_dropped(), 0u);
}

TEST(NetworkLoss, DropRateMatchesProbability) {
  sim::Simulator sim;
  const Graph g = pair_graph();
  Router router(g);
  Network net(sim, 0, router);
  net.set_loss(0.3, util::RandomStream(42, "loss"));
  int delivered = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    net.send_unreliable(0, 1, 1.0, [&] { ++delivered; });
  }
  sim.run();
  EXPECT_NEAR(static_cast<double>(net.messages_dropped()) / n, 0.3, 0.02);
  EXPECT_EQ(delivered + static_cast<int>(net.messages_dropped()), n);
  // Dropped messages never entered the sent counters.
  EXPECT_EQ(net.messages_sent(), static_cast<std::uint64_t>(delivered));
}

TEST(NetworkLoss, ReliableSendIgnoresLoss) {
  sim::Simulator sim;
  const Graph g = pair_graph();
  Router router(g);
  Network net(sim, 0, router);
  net.set_loss(0.9, util::RandomStream(1, "loss"));
  int delivered = 0;
  for (int i = 0; i < 50; ++i) {
    net.send(0, 1, 1.0, [&] { ++delivered; });
  }
  sim.run();
  EXPECT_EQ(delivered, 50);
  EXPECT_EQ(net.messages_dropped(), 0u);
}

TEST(NetworkLoss, DeterministicDropPattern) {
  auto run = [] {
    sim::Simulator sim;
    const Graph g = pair_graph();
    Router router(g);
    Network net(sim, 0, router);
    net.set_loss(0.5, util::RandomStream(7, "loss"));
    std::vector<int> delivered_ids;
    for (int i = 0; i < 200; ++i) {
      net.send_unreliable(0, 1, 1.0,
                          [&delivered_ids, i] { delivered_ids.push_back(i); });
    }
    sim.run();
    return delivered_ids;
  };
  EXPECT_EQ(run(), run());
}

TEST(NetworkLoss, RejectsBadProbability) {
  sim::Simulator sim;
  const Graph g = pair_graph();
  Router router(g);
  Network net(sim, 0, router);
  EXPECT_THROW(net.set_loss(1.0, util::RandomStream(1, "x")),
               std::invalid_argument);
  EXPECT_THROW(net.set_loss(-0.5, util::RandomStream(1, "x")),
               std::invalid_argument);
  EXPECT_NO_THROW(net.set_loss(0.0, util::RandomStream(1, "x")));
}

}  // namespace
}  // namespace scal::net
