#include "grid/estimator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace scal::grid {
namespace {

StatusUpdate update_for(ResourceIndex r, double load, sim::Time stamp) {
  StatusUpdate u;
  u.cluster = 0;
  u.resource = r;
  u.load = load;
  u.busy = load > 0.5;
  u.stamp = stamp;
  return u;
}

class EstimatorTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  std::vector<StatusBatch> batches_;

  std::unique_ptr<Estimator> make_estimator(double process = 0.01,
                                            double forward = 0.03,
                                            double window = 4.0,
                                            std::uint32_t index = 0) {
    return std::make_unique<Estimator>(
        sim_, 0, /*cluster=*/0, index, process, forward, window,
        [this](StatusBatch b) { batches_.push_back(std::move(b)); });
  }
};

TEST_F(EstimatorTest, BatchesUpdatesWithinWindow) {
  auto est = make_estimator();
  est->receive_update(update_for(0, 1.0, 0.0));
  est->receive_update(update_for(1, 2.0, 0.0));
  est->receive_update(update_for(2, 0.0, 0.0));
  sim_.run();
  ASSERT_EQ(batches_.size(), 1u);
  EXPECT_EQ(batches_[0].updates.size(), 3u);
}

TEST_F(EstimatorTest, SeparateWindowsSeparateBatches) {
  auto est = make_estimator(0.01, 0.03, 4.0);
  est->receive_update(update_for(0, 1.0, 0.0));
  sim_.schedule_at(10.0, [&] { est->receive_update(update_for(0, 2.0, 10.0)); });
  sim_.run();
  EXPECT_EQ(batches_.size(), 2u);
}

TEST_F(EstimatorTest, BatchCarriesClusterAndEstimatorIndex) {
  auto est = make_estimator(0.01, 0.03, 4.0, /*index=*/3);
  est->receive_update(update_for(0, 1.0, 0.0));
  sim_.run();
  ASSERT_EQ(batches_.size(), 1u);
  EXPECT_EQ(batches_[0].estimator, 3u);
  EXPECT_EQ(batches_[0].cluster, 0u);
}

TEST_F(EstimatorTest, FlagsIdleTransitions) {
  auto est = make_estimator();
  est->receive_update(update_for(0, 2.0, 0.0));
  sim_.schedule_at(10.0, [&] { est->receive_update(update_for(0, 0.0, 10.0)); });
  sim_.schedule_at(20.0, [&] { est->receive_update(update_for(0, 0.0, 20.0)); });
  sim_.run();
  ASSERT_EQ(batches_.size(), 3u);
  EXPECT_FALSE(batches_[0].updates[0].idle_transition);  // first sighting
  EXPECT_TRUE(batches_[1].updates[0].idle_transition);   // busy -> idle
  EXPECT_FALSE(batches_[2].updates[0].idle_transition);  // idle -> idle
}

TEST_F(EstimatorTest, FirstUpdateIdleIsNotATransition) {
  auto est = make_estimator();
  est->receive_update(update_for(0, 0.0, 0.0));
  sim_.run();
  ASSERT_EQ(batches_.size(), 1u);
  EXPECT_FALSE(batches_[0].updates[0].idle_transition);
}

TEST_F(EstimatorTest, RecoveryIsNotAnIdleTransition) {
  // Regression: a resource that crashes while busy reports load 0 on its
  // first post-recovery update.  That busy -> idle edge is a state reset,
  // not a genuine drain; flagging it fired phantom AUCTION / Sy-I
  // volunteer rounds for a machine that just lost all its work.
  auto est = make_estimator();
  est->receive_update(update_for(0, 2.0, 0.0));  // busy
  sim_.schedule_at(10.0, [&] {
    StatusUpdate u = update_for(0, 0.0, 10.0);
    u.recovered = true;  // first report after crash recovery
    est->receive_update(u);
  });
  sim_.schedule_at(20.0, [&] { est->receive_update(update_for(0, 2.0, 20.0)); });
  sim_.schedule_at(30.0, [&] { est->receive_update(update_for(0, 0.0, 30.0)); });
  sim_.run();
  ASSERT_EQ(batches_.size(), 4u);
  EXPECT_FALSE(batches_[1].updates[0].idle_transition);  // recovery reset
  EXPECT_TRUE(batches_[3].updates[0].idle_transition);   // real drain later
}

TEST_F(EstimatorTest, AccumulatesProcessingCostAsServerWork) {
  auto est = make_estimator(/*process=*/0.5, /*forward=*/1.0, 4.0);
  est->receive_update(update_for(0, 1.0, 0.0));
  est->receive_update(update_for(1, 1.0, 0.0));
  sim_.run();
  EXPECT_DOUBLE_EQ(est->busy_time(), 2.0 * 0.5 + 1.0);
}

TEST_F(EstimatorTest, RejectsNegativeCosts) {
  EXPECT_THROW(Estimator(sim_, 0, 0, 0, -0.1, 0.0, 1.0, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace scal::grid
