#include "ctrl/aggregator.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "sim/simulator.hpp"

namespace scal::ctrl {
namespace {

grid::StatusUpdate update(grid::ResourceIndex resource, double load,
                          double stamp = 0.0) {
  grid::StatusUpdate u;
  u.cluster = 0;
  u.resource = resource;
  u.load = load;
  u.stamp = stamp;
  return u;
}

/// Harness owning the simulator, one aggregator, and a capture of every
/// forwarded batch (with its forward time).
struct Harness {
  explicit Harness(double process_cost = 0.002, double forward_cost = 0.01)
      : agg(sim, 1, /*node=*/7, process_cost, forward_cost,
            [this](std::vector<grid::StatusUpdate> batch) {
              forward_times.push_back(sim.now());
              batches.push_back(std::move(batch));
            }) {}

  /// Updates carried by every forwarded batch together.
  std::size_t updates_forwarded() const {
    std::size_t n = 0;
    for (const auto& batch : batches) n += batch.size();
    return n;
  }

  sim::Simulator sim;
  std::vector<std::vector<grid::StatusUpdate>> batches;
  std::vector<double> forward_times;
  Aggregator agg;
};

TEST(Aggregator, DegenerateKnobsForwardEachUpdateAlone) {
  Harness h;
  h.agg.configure(1, 0.0);
  h.sim.schedule_at(0.0, [&]() { h.agg.ingest({update(0, 1.0)}); });
  h.sim.schedule_at(5.0, [&]() { h.agg.ingest({update(1, 2.0)}); });
  h.sim.run(100.0);
  ASSERT_EQ(h.batches.size(), 2u);
  EXPECT_EQ(h.batches[0].size(), 1u);
  EXPECT_EQ(h.batches[1].size(), 1u);
  EXPECT_EQ(h.agg.updates_in(), 2u);
  EXPECT_EQ(h.updates_forwarded(), 2u);
  EXPECT_EQ(h.agg.updates_coalesced(), 0u);
  EXPECT_EQ(h.agg.batches_out(), 2u);
  // process + forward cost per update.
  EXPECT_DOUBLE_EQ(h.forward_times[0], 0.002 + 0.01);
}

TEST(Aggregator, CoalescingReplacesSameResourceUpdate) {
  Harness h;
  h.agg.configure(/*max_batch=*/8, /*flush_interval=*/10.0);
  h.sim.schedule_at(0.0, [&]() { h.agg.ingest({update(3, 1.0, 0.0)}); });
  h.sim.schedule_at(2.0, [&]() { h.agg.ingest({update(3, 4.0, 2.0)}); });
  h.sim.run(100.0);
  ASSERT_EQ(h.batches.size(), 1u);
  ASSERT_EQ(h.batches[0].size(), 1u);
  // The newer view survives.
  EXPECT_DOUBLE_EQ(h.batches[0][0].load, 4.0);
  EXPECT_EQ(h.agg.updates_in(), 2u);
  EXPECT_EQ(h.updates_forwarded(), 1u);
  EXPECT_EQ(h.agg.updates_coalesced(), 1u);
}

TEST(Aggregator, DistinctResourcesDoNotCoalesce) {
  Harness h;
  h.agg.configure(8, 10.0);
  h.sim.schedule_at(0.0, [&]() {
    h.agg.ingest({update(0, 1.0), update(1, 2.0), update(2, 3.0)});
  });
  h.sim.run(100.0);
  ASSERT_EQ(h.batches.size(), 1u);
  EXPECT_EQ(h.batches[0].size(), 3u);
  EXPECT_EQ(h.agg.updates_coalesced(), 0u);
}

TEST(Aggregator, MaxBatchTriggersImmediateFlush) {
  Harness h;
  h.agg.configure(/*max_batch=*/3, /*flush_interval=*/50.0);
  h.sim.schedule_at(0.0, [&]() {
    h.agg.ingest({update(0, 1.0), update(1, 1.0), update(2, 1.0)});
  });
  h.sim.run(10.0);  // well before the 50-unit flush timer
  ASSERT_EQ(h.batches.size(), 1u);
  EXPECT_EQ(h.batches[0].size(), 3u);
}

TEST(Aggregator, FlushTimerShipsAPartialBatch) {
  Harness h(/*process_cost=*/0.0, /*forward_cost=*/0.0);
  h.agg.configure(/*max_batch=*/100, /*flush_interval=*/5.0);
  h.sim.schedule_at(1.0, [&]() { h.agg.ingest({update(0, 1.0)}); });
  h.sim.run(100.0);
  ASSERT_EQ(h.batches.size(), 1u);
  // Buffered at t=1, timer arms for +5.
  EXPECT_DOUBLE_EQ(h.forward_times[0], 6.0);
}

TEST(Aggregator, BlackoutFlushesPendingBufferAtZeroCost) {
  Harness h(/*process_cost=*/0.0, /*forward_cost=*/0.25);
  h.agg.configure(100, 50.0);
  h.sim.schedule_at(0.0, [&]() { h.agg.ingest({update(0, 1.0)}); });
  h.sim.schedule_at(2.0, [&]() { h.agg.set_blackout(true); });
  h.sim.run(10.0);
  // The failover flush runs inline at the blackout instant, not through
  // the (charged) work queue.
  ASSERT_EQ(h.batches.size(), 1u);
  EXPECT_DOUBLE_EQ(h.forward_times[0], 2.0);
  EXPECT_TRUE(h.agg.blacked_out());
}

TEST(Aggregator, BlackoutRelaysArrivalsUnbufferedAndUncharged) {
  Harness h;
  h.agg.configure(100, 50.0);
  h.sim.schedule_at(0.0, [&]() { h.agg.set_blackout(true); });
  h.sim.schedule_at(1.0, [&]() {
    h.agg.ingest({update(0, 1.0), update(1, 2.0)});
  });
  h.sim.run(10.0);
  ASSERT_EQ(h.batches.size(), 1u);
  EXPECT_EQ(h.batches[0].size(), 2u);
  EXPECT_DOUBLE_EQ(h.forward_times[0], 1.0);  // relayed inline
  EXPECT_EQ(h.agg.updates_in(), 0u);          // not counted as tree work
  EXPECT_DOUBLE_EQ(h.agg.work_in_system_time(), 0.0);
  h.agg.set_blackout(false);
  EXPECT_FALSE(h.agg.blacked_out());
}

TEST(Aggregator, InvalidConfigurationThrows) {
  sim::Simulator sim;
  EXPECT_THROW(
      Aggregator(sim, 1, 0, -1.0, 0.0, [](std::vector<grid::StatusUpdate>) {}),
      std::invalid_argument);
  EXPECT_THROW(Aggregator(sim, 1, 0, 0.0, 0.0, nullptr),
               std::invalid_argument);
  Aggregator agg(sim, 1, 0, 0.0, 0.0, [](std::vector<grid::StatusUpdate>) {});
  EXPECT_THROW(agg.configure(0, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace scal::ctrl
