// RESERVE protocol corner cases, driven message-by-message.

#include <gtest/gtest.h>

#include "rms/scenario.hpp"

namespace scal::rms {
namespace {

struct ReserveGrid {
  std::unique_ptr<grid::GridSystem> system;

  ReserveGrid() {
    grid::GridConfig config;
    config.rms = grid::RmsKind::kReserve;
    config.topology.nodes = 40;
    config.cluster_size = 20;
    config.horizon = 400.0;
    config.workload.mean_interarrival = 1e9;
    config.tuning.update_interval = 5.0;
    system = Scenario(config).build();
  }

  grid::SchedulerBase& sched(grid::ClusterId c) {
    return system->scheduler_for(c);
  }

  workload::Job remote(workload::JobId id) {
    workload::Job j;
    j.id = id;
    j.exec_time = 900.0;
    j.job_class = workload::JobClass::kRemote;
    j.benefit_factor = 100.0;
    j.arrival = system->simulator().now();
    return j;
  }
};

TEST(ReserveUnit, ProbeAgainstIdleClusterSaysYes) {
  ReserveGrid grid;
  grid::RmsMessage probe;
  probe.kind = grid::MsgKind::kReserveProbe;
  probe.from = 0;
  probe.to = 1;
  probe.token = 5;
  // Deliver to idle cluster 1; it must answer kReserveReply with a = 1
  // (below threshold), which cluster 0 ignores for an unknown token.
  grid.sched(1).deliver_message(probe);
  grid.system->simulator().run(30.0);
  // No crash, no transfer (token unknown at cluster 0).
  EXPECT_EQ(grid.system->metrics().snapshot().transfers, 0u);
}

TEST(ReserveUnit, ReservationsFlowFromIdleClusters) {
  ReserveGrid grid;
  auto& sim = grid.system->simulator();
  // Both clusters idle: after the first status batches, each scheduler
  // sees busy fraction 0 < T_l and advertises reservations.
  sim.schedule_at(1.0, [] {});
  grid.system->run();
  EXPECT_GT(grid.system->metrics().snapshot().adverts, 0u);
}

TEST(ReserveUnit, LoadedHolderUsesReservationToShedWork) {
  ReserveGrid grid;
  auto& sim = grid.system->simulator();
  sim.schedule_at(30.0, [&grid]() {
    // By now cluster 1 (idle) has registered a reservation at cluster 0.
    // Flood cluster 0 with REMOTE jobs: its busy fraction rises above
    // T_l and it probes + transfers toward the reserver.
    for (int i = 0; i < 50; ++i) {
      grid.sched(0).deliver_job(grid.remote(100 + i));
    }
  });
  grid.system->run();
  const grid::SimulationResult& m = grid.system->metrics().snapshot();
  EXPECT_GT(m.polls, 0u);      // probes
  EXPECT_GT(m.transfers, 0u);  // accepted handoffs
}

TEST(ReserveUnit, StaleReplyForUnknownTokenIsIgnored) {
  ReserveGrid grid;
  grid::RmsMessage reply;
  reply.kind = grid::MsgKind::kReserveReply;
  reply.from = 1;
  reply.to = 0;
  reply.token = 4242;
  reply.a = 1.0;
  grid.sched(0).deliver_message(reply);
  grid.system->simulator().run(20.0);
  EXPECT_EQ(grid.system->metrics().snapshot().transfers, 0u);
}

}  // namespace
}  // namespace scal::rms
