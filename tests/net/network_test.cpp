#include "net/network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace scal::net {
namespace {

Graph pair_graph() {
  Graph g(2);
  g.add_edge(0, 1, 3.0, 10.0);
  return g;
}

TEST(Network, DeliversAfterRoutedDelay) {
  sim::Simulator sim;
  const Graph g = pair_graph();
  Router router(g);
  Network net(sim, 0, router);
  double delivered_at = -1.0;
  net.send(0, 1, 20.0, [&] { delivered_at = sim.now(); });
  sim.run();
  // latency 3 + size 20 / bandwidth 10 = 5.
  EXPECT_DOUBLE_EQ(delivered_at, 5.0);
}

TEST(Network, PredictMatchesDelivery) {
  sim::Simulator sim;
  const Graph g = pair_graph();
  Router router(g);
  Network net(sim, 0, router);
  const double predicted = net.predict_delay(0, 1, 20.0);
  double delivered_at = -1.0;
  net.send(0, 1, 20.0, [&] { delivered_at = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(delivered_at, predicted);
}

TEST(Network, SelfSendIsImmediateButAsync) {
  sim::Simulator sim;
  const Graph g = pair_graph();
  Router router(g);
  Network net(sim, 0, router);
  bool delivered = false;
  net.send(1, 1, 5.0, [&] { delivered = true; });
  EXPECT_FALSE(delivered);  // still causal: goes through the event queue
  sim.run();
  EXPECT_TRUE(delivered);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Network, SelfDelayChecksTheNode) {
  // A zero self-delay is only for a node of the graph.
  sim::Simulator sim;
  const Graph g = pair_graph();
  Router router(g);
  Network net(sim, 0, router);
  EXPECT_EQ(net.predict_delay(1, 1, 5.0), 0.0);
  EXPECT_THROW(net.predict_delay(2, 2, 5.0), std::out_of_range);
}

TEST(Network, DelayScaleMustBeFinite) {
  // An infinite scale would schedule every message at +inf.
  sim::Simulator sim;
  const Graph g = pair_graph();
  Router router(g);
  Network net(sim, 0, router);
  EXPECT_THROW(net.set_delay_scale(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(net.set_delay_scale(std::nan("")), std::invalid_argument);
  EXPECT_DOUBLE_EQ(net.delay_scale(), 1.0);
}

TEST(Network, DelayScaleMultiplies) {
  sim::Simulator sim;
  const Graph g = pair_graph();
  Router router(g);
  Network net(sim, 0, router);
  net.set_delay_scale(0.5);
  EXPECT_DOUBLE_EQ(net.predict_delay(0, 1, 20.0), 2.5);
  EXPECT_THROW(net.set_delay_scale(0.0), std::invalid_argument);
}

TEST(Network, CountsTraffic) {
  sim::Simulator sim;
  const Graph g = pair_graph();
  Router router(g);
  Network net(sim, 0, router);
  int delivered = 0;
  net.send(0, 1, 2.0, [&] { ++delivered; });
  net.send(1, 0, 3.0, [&] { ++delivered; });
  EXPECT_EQ(net.messages_sent(), 2u);
  sim.run();
  EXPECT_EQ(delivered, 2);
}

TEST(Network, OrderingPreservedForEqualDelays) {
  sim::Simulator sim;
  const Graph g = pair_graph();
  Router router(g);
  Network net(sim, 0, router);
  std::vector<int> order;
  net.send(0, 1, 10.0, [&] { order.push_back(1); });
  net.send(0, 1, 10.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace scal::net
