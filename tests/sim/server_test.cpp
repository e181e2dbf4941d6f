#include "sim/server.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace scal::sim {
namespace {

TEST(Server, ServesOneItem) {
  Simulator sim;
  Server server(sim, 0, "s");
  bool done = false;
  server.submit(2.0, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(server.busy_time(), 2.0);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Server, FifoOrderAndSerialService) {
  Simulator sim;
  Server server(sim, 0, "s");
  std::vector<std::pair<int, Time>> completions;
  for (int i = 0; i < 3; ++i) {
    server.submit(1.0, [&, i] { completions.emplace_back(i, sim.now()); });
  }
  sim.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0].first, 0);
  EXPECT_DOUBLE_EQ(completions[0].second, 1.0);
  EXPECT_DOUBLE_EQ(completions[1].second, 2.0);
  EXPECT_DOUBLE_EQ(completions[2].second, 3.0);
}

TEST(Server, ZeroCostItemsComplete) {
  Simulator sim;
  Server server(sim, 0, "s");
  int done = 0;
  server.submit(0.0, [&] { ++done; });
  server.submit(0.0, [&] { ++done; });
  sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_DOUBLE_EQ(server.busy_time(), 0.0);
}

TEST(Server, RejectsNegativeCost) {
  Simulator sim;
  Server server(sim, 0, "s");
  EXPECT_THROW(server.submit(-1.0, {}), std::invalid_argument);
}

TEST(Server, QueueLengthTracksBacklog) {
  Simulator sim;
  Server server(sim, 0, "s");
  int served = 0;
  for (int i = 0; i < 5; ++i) server.submit(1.0, [&] { ++served; });
  // One in service, four waiting.
  EXPECT_EQ(server.queue_length(), 4u);
  EXPECT_TRUE(server.busy());
  sim.run();
  EXPECT_EQ(server.queue_length(), 0u);
  EXPECT_FALSE(server.busy());
  EXPECT_EQ(served, 5);
}

TEST(Server, SubmitFromCompletionCallback) {
  Simulator sim;
  Server server(sim, 0, "s");
  bool nested_done = false;
  server.submit(1.0, [&] {
    server.submit(1.0, [&] { nested_done = true; });
  });
  sim.run();
  EXPECT_TRUE(nested_done);
  EXPECT_DOUBLE_EQ(server.busy_time(), 2.0);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Server, WorkInSystemEqualsBusyWhenUnsaturated) {
  Simulator sim;
  Server server(sim, 0, "s");
  // Items spaced far apart: never queue.
  for (int i = 0; i < 4; ++i) {
    sim.schedule_in(10.0 * i, [&] { server.submit(1.0, {}); });
  }
  sim.run();
  EXPECT_DOUBLE_EQ(server.work_in_system_time(), server.busy_time());
}

TEST(Server, WorkInSystemGrowsUnderSaturation) {
  Simulator sim;
  Server server(sim, 0, "s");
  // 10 items of cost 10 arrive at t=0: total wait = 10+20+...+90.
  for (int i = 0; i < 10; ++i) server.submit(10.0, {});
  sim.run();
  EXPECT_DOUBLE_EQ(server.busy_time(), 100.0);
  EXPECT_DOUBLE_EQ(server.work_in_system_time(), 100.0 + 450.0);
}

TEST(Server, OfferedWorkExceedsBusyWhenCutOff) {
  Simulator sim;
  Server server(sim, 0, "s");
  int served = 0;
  for (int i = 0; i < 10; ++i) server.submit(10.0, [&] { ++served; });
  sim.run(25.0);  // only two complete, third started
  // Of the 100 units offered, the three started items are busy time;
  // the other seven wait.
  EXPECT_EQ(served, 2);
  EXPECT_DOUBLE_EQ(server.busy_time(), 30.0);
  EXPECT_EQ(server.queue_length(), 7u);
}

TEST(Server, QueueTimeIntegralAccountsTail) {
  Simulator sim;
  Server server(sim, 0, "s");
  server.submit(10.0, {});
  server.submit(10.0, {});  // waits 10
  sim.run(5.0);
  // At t=5: one in service, one waiting since t=0.
  EXPECT_DOUBLE_EQ(server.queue_time_integral(), 5.0);
}

}  // namespace
}  // namespace scal::sim
