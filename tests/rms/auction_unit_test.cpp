// AUCTION protocol corner cases, driven message-by-message on a real
// two-cluster grid (no background workload).

#include <gtest/gtest.h>

#include "rms/scenario.hpp"

namespace scal::rms {
namespace {

struct AuctionGrid {
  std::unique_ptr<grid::GridSystem> system;

  AuctionGrid() {
    grid::GridConfig config;
    config.rms = grid::RmsKind::kAuction;
    config.topology.nodes = 40;
    config.cluster_size = 20;
    config.horizon = 500.0;
    config.workload.mean_interarrival = 1e9;  // quiet grid
    config.tuning.update_interval = 5.0;      // brisk status flow
    system = Scenario(config).build();
  }

  grid::SchedulerBase& sched(grid::ClusterId c) {
    return system->scheduler_for(c);
  }

  workload::Job job(workload::JobId id, double exec = 900.0) {
    workload::Job j;
    j.id = id;
    j.exec_time = exec;
    j.job_class = exec > 700.0 ? workload::JobClass::kRemote
                               : workload::JobClass::kLocal;
    j.benefit_factor = 100.0;
    j.arrival = system->simulator().now();
    return j;
  }
};

TEST(AuctionUnit, InviteWithoutBacklogDrawsNoBid) {
  AuctionGrid grid;
  // Cluster 1 is idle: an invitation must not produce a bid.
  grid::RmsMessage invite;
  invite.kind = grid::MsgKind::kAuctionInvite;
  invite.from = 0;
  invite.to = 1;
  invite.token = 42;
  grid.sched(1).deliver_message(invite);
  grid.system->simulator().run(50.0);
  // No bid messages: network only carried what we injected (plus status
  // traffic); the auction at cluster 0 never hears back.  Detectable
  // through the absence of any auction award / transfer.
  const auto r_metrics = grid.system->metrics().snapshot().transfers;
  EXPECT_EQ(r_metrics, 0u);
}

TEST(AuctionUnit, AwardWithEmptyQueueRepliesNoJob) {
  AuctionGrid grid;
  grid::RmsMessage award;
  award.kind = grid::MsgKind::kAuctionAward;
  award.from = 0;
  award.to = 1;
  award.token = 7;
  grid.sched(1).deliver_message(award);
  grid.system->simulator().run(50.0);
  // Nothing to steal: no transfer happened, nothing crashed.
  EXPECT_EQ(grid.system->metrics().snapshot().transfers, 0u);
}

TEST(AuctionUnit, FullAuctionMovesABackloggedJob) {
  AuctionGrid grid;
  auto& sim = grid.system->simulator();
  // Pre-schedule the scenario, then drive it through GridSystem::run()
  // so status reporting and estimators are live.
  sim.schedule_at(1.0, [&grid]() {
    // Load cluster 1's resources heavily so it will bid and can donate.
    for (int i = 0; i < 60; ++i) {
      grid.sched(1).deliver_job(grid.job(100 + i, 650.0));  // LOCAL jobs
    }
  });
  sim.schedule_at(10.0, [&grid]() {
    // Cluster 0 stays idle; its estimator stream needs a busy -> idle
    // transition to trigger an auction.  The job must stay busy across
    // at least one report tick (interval 5) to be observed: 80 demand
    // at rate 8 runs for 10 time units.
    grid.sched(0).deliver_job(grid.job(1, 80.0));
  });
  grid.system->run();

  // The idle transition at cluster 0 should have triggered at least one
  // auction; with cluster 1 backlogged, a job must have moved 1 -> 0.
  EXPECT_GT(grid.system->metrics().snapshot().auctions, 0u);
  EXPECT_GT(grid.system->metrics().snapshot().transfers, 0u);
}

TEST(AuctionUnit, LateBidAfterCloseIsIgnored) {
  AuctionGrid grid;
  // A bid for a token that never had an auction (or whose auction has
  // closed) must be dropped without effect.
  grid::RmsMessage bid;
  bid.kind = grid::MsgKind::kAuctionBid;
  bid.from = 1;
  bid.to = 0;
  bid.token = 999;
  bid.a = 5.0;
  grid.sched(0).deliver_message(bid);
  grid.system->simulator().run(50.0);
  EXPECT_EQ(grid.system->metrics().snapshot().transfers, 0u);
}

}  // namespace
}  // namespace scal::rms
