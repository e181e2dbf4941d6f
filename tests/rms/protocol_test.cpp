// Protocol-specific behaviors of the seven RMS models (paper §3.3).

#include <gtest/gtest.h>

#include "rms/scenario.hpp"

namespace scal::rms {
namespace {

grid::GridConfig base_config(grid::RmsKind kind) {
  grid::GridConfig config;
  config.rms = kind;
  config.topology.nodes = 100;
  config.cluster_size = 20;
  config.horizon = 800.0;
  config.workload.mean_interarrival = 0.8;
  config.seed = 13;
  return config;
}

TEST(LowestProtocol, PollsScaleWithNeighborhoodSize) {
  grid::GridConfig small = base_config(grid::RmsKind::kLowest);
  small.tuning.neighborhood_size = 1;
  grid::GridConfig large = small;
  large.tuning.neighborhood_size = 4;
  const auto r_small = Scenario(small).run();
  const auto r_large = Scenario(large).run();
  // Polls per REMOTE arrival = L_p, so 4x the neighborhood ~= 4x polls.
  EXPECT_NEAR(static_cast<double>(r_large.polls) /
                  static_cast<double>(r_small.polls),
              4.0, 0.4);
}

TEST(LowestProtocol, OnlyRemoteJobsTriggerPolls) {
  grid::GridConfig config = base_config(grid::RmsKind::kLowest);
  // Make every job LOCAL: exec times uniform far below T_CPU.
  config.workload.exec_model = workload::ExecTimeModel::kUniform;
  config.workload.uniform_lo = 50.0;
  config.workload.uniform_hi = 200.0;
  const auto r = Scenario(config).run();
  EXPECT_EQ(r.jobs_remote, 0u);
  EXPECT_EQ(r.polls, 0u);
  EXPECT_EQ(r.transfers, 0u);
}

TEST(LowestProtocol, AllRemoteMeansPollsPerJob) {
  grid::GridConfig config = base_config(grid::RmsKind::kLowest);
  config.tuning.neighborhood_size = 2;
  config.workload.exec_model = workload::ExecTimeModel::kUniform;
  config.workload.uniform_lo = 800.0;   // all REMOTE
  config.workload.uniform_hi = 1200.0;
  config.workload.mean_interarrival = 2.0;
  const auto r = Scenario(config).run();
  EXPECT_EQ(r.jobs_local, 0u);
  EXPECT_NEAR(static_cast<double>(r.polls),
              2.0 * static_cast<double>(r.jobs_arrived),
              0.1 * static_cast<double>(r.jobs_arrived));
}

TEST(ReserveProtocol, AdvertisesOnlyWhenLightlyLoaded) {
  // Heavy load everywhere: busy fraction stays above T_l, so no cluster
  // should register reservations.
  grid::GridConfig hot = base_config(grid::RmsKind::kReserve);
  hot.workload.mean_interarrival = 0.4;  // rho >> 1
  const auto r_hot = Scenario(hot).run();

  grid::GridConfig cold = base_config(grid::RmsKind::kReserve);
  cold.workload.mean_interarrival = 8.0;  // mostly idle
  const auto r_cold = Scenario(cold).run();

  EXPECT_GT(r_cold.adverts, r_hot.adverts);
}

TEST(AuctionProtocol, AuctionVolumeGrowsWithEstimatorReplication) {
  grid::GridConfig one = base_config(grid::RmsKind::kAuction);
  one.workload.mean_interarrival = 2.0;
  grid::GridConfig four = one;
  four.estimators_per_cluster = 4;
  const auto r1 = Scenario(one).run();
  const auto r4 = Scenario(four).run();
  // Each estimator's trigger stream is paced independently, so
  // replicating estimators multiplies auctions (Case 3's mechanism).
  EXPECT_GT(r4.auctions, 2 * r1.auctions);
}

TEST(AuctionProtocol, AuctionsMoveJobs) {
  grid::GridConfig config = base_config(grid::RmsKind::kAuction);
  const auto r = Scenario(config).run();
  EXPECT_GT(r.auctions, 0u);
  // Transfers include both poll-driven and auction-driven handoffs.
  EXPECT_GT(r.transfers, 0u);
}

TEST(SenderInitiatedProtocol, MiddlewareCarriesAllPolls) {
  const auto r = Scenario(base_config(grid::RmsKind::kSenderInitiated)).run();
  EXPECT_GT(r.polls, 0u);
  EXPECT_GT(r.G_middleware, 0.0);
}

TEST(ReceiverInitiatedProtocol, VolunteerIntervalControlsAdverts) {
  grid::GridConfig slow = base_config(grid::RmsKind::kReceiverInitiated);
  slow.workload.mean_interarrival = 4.0;  // idle resources exist
  slow.tuning.volunteer_interval = 200.0;
  grid::GridConfig fast = slow;
  fast.tuning.volunteer_interval = 20.0;
  const auto r_slow = Scenario(slow).run();
  const auto r_fast = Scenario(fast).run();
  EXPECT_GT(r_fast.adverts, 3 * r_slow.adverts);
}

TEST(ReceiverInitiatedProtocol, NoJobLostToParking) {
  // Overload one: parked jobs must still finish or be counted
  // unfinished; conservation is exact.
  grid::GridConfig config = base_config(grid::RmsKind::kReceiverInitiated);
  config.workload.mean_interarrival = 0.5;
  const auto r = Scenario(config).run();
  EXPECT_EQ(r.jobs_completed + r.jobs_unfinished, r.jobs_arrived);
  EXPECT_GT(r.jobs_completed, 0u);
}

TEST(SymmetricProtocol, AdvertisesMoreThanSenderInitiated) {
  const auto si = Scenario(base_config(grid::RmsKind::kSenderInitiated)).run();
  const auto syi = Scenario(base_config(grid::RmsKind::kSymmetric)).run();
  EXPECT_EQ(si.adverts, 0u);
  EXPECT_GT(syi.adverts, 0u);
}

TEST(SymmetricProtocol, FreshAdvertsReducePollTraffic) {
  // With frequent volunteering, Sy-I should place REMOTE jobs via the
  // advertisement handshake instead of the L_p-wide S-I poll.
  grid::GridConfig syi = base_config(grid::RmsKind::kSymmetric);
  syi.workload.mean_interarrival = 2.0;
  syi.tuning.volunteer_interval = 20.0;
  const auto r_syi = Scenario(syi).run();

  grid::GridConfig si = syi;
  si.rms = grid::RmsKind::kSenderInitiated;
  const auto r_si = Scenario(si).run();

  EXPECT_LT(r_syi.polls, r_si.polls);
}

TEST(CentralProtocol, TracksWholePoolAndBalancesIt) {
  const auto central = Scenario(base_config(grid::RmsKind::kCentral)).run();
  // All updates land at the single scheduler: its G_scheduler share is
  // nonzero and there is exactly zero inter-scheduler traffic.
  EXPECT_GT(central.G_scheduler, 0.0);
  EXPECT_EQ(central.polls, 0u);
  EXPECT_EQ(central.transfers, 0u);
}

class UpdateIntervalTest
    : public ::testing::TestWithParam<grid::RmsKind> {};

TEST_P(UpdateIntervalTest, LongerIntervalMeansFewerUpdates) {
  grid::GridConfig fast = base_config(GetParam());
  fast.tuning.update_interval = 5.0;
  grid::GridConfig slow = base_config(GetParam());
  slow.tuning.update_interval = 80.0;
  const auto r_fast = Scenario(fast).run();
  const auto r_slow = Scenario(slow).run();
  EXPECT_GT(r_fast.updates_received, r_slow.updates_received);
}

INSTANTIATE_TEST_SUITE_P(
    Sample, UpdateIntervalTest,
    ::testing::Values(grid::RmsKind::kCentral, grid::RmsKind::kLowest,
                      grid::RmsKind::kSymmetric),
    [](const auto& info) {
      std::string name = grid::to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace scal::rms
