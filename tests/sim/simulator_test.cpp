#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace scal::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, AdvancesTimeToEvents) {
  Simulator sim;
  std::vector<Time> seen;
  sim.schedule_in(5.0, [&] { seen.push_back(sim.now()); });
  sim.schedule_in(2.0, [&] { seen.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(seen, (std::vector<Time>{2.0, 5.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule_in(1.0, chain);
  };
  sim.schedule_in(1.0, chain);
  const auto count = sim.run();
  EXPECT_EQ(count, 5u);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, HorizonStopsAndAdvancesClock) {
  Simulator sim;
  bool late_fired = false;
  sim.schedule_in(1.0, [] {});
  sim.schedule_in(100.0, [&] { late_fired = true; });
  sim.run(10.0);
  EXPECT_FALSE(late_fired);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
  EXPECT_EQ(sim.pending_events(), 1u);
  // A later run picks the event up.
  sim.run();
  EXPECT_TRUE(late_fired);
}

TEST(Simulator, EventExactlyAtHorizonRuns) {
  Simulator sim;
  bool fired = false;
  sim.schedule_in(10.0, [&] { fired = true; });
  sim.run(10.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, RejectsNegativeDelay) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, RejectsSchedulingIntoThePast) {
  Simulator sim;
  sim.schedule_in(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, StopInterruptsRun) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_in(i, [&] {
      if (++fired == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.pending_events(), 7u);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, CancelPreventsDispatch) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_in(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CountsDispatchedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_in(i, [] {});
  sim.run();
  EXPECT_EQ(sim.dispatched_events(), 7u);
}

TEST(Simulator, SimultaneousEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 20; ++i) {
    sim.schedule_at(3.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ThrowingEventLeavesKernelRunnable) {
  // An exception out of an event unwinds run(); the kernel must not stay
  // "running", and the in-flight event's slot must be released, so a
  // second run() carries on with the events still pending.
  Simulator sim;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  sim.schedule_in(1.0, [] {});
  sim.schedule_in(2.0, [token] { throw std::runtime_error("boom"); });
  sim.schedule_in(3.0, [] {});
  token.reset();
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_TRUE(watch.expired());  // the throwing closure was destroyed
  EXPECT_EQ(sim.dispatched_events(), 1u);
  EXPECT_EQ(sim.pending_events(), 1u);

  std::vector<Time> seen;
  sim.schedule_in(0.5, [&] { seen.push_back(sim.now()); });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(seen, (std::vector<Time>{2.5}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.dispatched_events(), 3u);
}

TEST(Simulator, EventCannotCancelItselfWhileRunning) {
  // In-place dispatch keeps the closure in its slot while it runs; its
  // own id must already be stale, as it was when pop() moved it out.
  Simulator sim;
  EventId self = 0;
  bool cancelled = true;
  self = sim.schedule_in(1.0, [&] { cancelled = sim.cancel(self); });
  sim.run();
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(sim.dispatched_events(), 1u);
}

}  // namespace
}  // namespace scal::sim
