// DistributedSchedulerBase helpers (transfer accounting, the R-I
// demand/reply handshake) exercised in isolation through a probe policy
// on a two-cluster grid.

#include <gtest/gtest.h>

#include "rms/base.hpp"
#include "rms/factory.hpp"

namespace scal::rms {
namespace {

class ProbePolicy : public DistributedSchedulerBase {
 public:
  using DistributedSchedulerBase::DistributedSchedulerBase;

  std::vector<grid::RmsMessage> received;

  using DistributedSchedulerBase::decide_demand_reply;
  using DistributedSchedulerBase::reply_demand;
  using DistributedSchedulerBase::request_demand;
  using DistributedSchedulerBase::schedule_local;
  using DistributedSchedulerBase::transfer_job;

 protected:
  void handle_job(workload::Job job) override {
    schedule_local(std::move(job));
  }
  void handle_message(const grid::RmsMessage& msg) override {
    received.push_back(msg);
    if (msg.kind == grid::MsgKind::kDemandRequest) {
      reply_demand(msg);
      return;
    }
    if (msg.kind == grid::MsgKind::kDemandReply) {
      decide_demand_reply(msg);
      return;
    }
    DistributedSchedulerBase::handle_message(msg);
  }
};

struct TwoClusterGrid {
  std::vector<ProbePolicy*> scheds;
  std::unique_ptr<grid::GridSystem> system;

  TwoClusterGrid() {
    grid::GridConfig config;
    config.topology.nodes = 40;
    config.cluster_size = 20;
    config.horizon = 300.0;
    config.workload.mean_interarrival = 1e9;  // no background jobs
    grid::SchedulerFactory factory =
        [this](grid::GridSystem& system, sim::EntityId id,
               grid::ClusterId cluster, net::NodeId node) {
          auto s = std::make_unique<ProbePolicy>(system, id, cluster, node);
          scheds.push_back(s.get());
          return s;
        };
    system = std::make_unique<grid::GridSystem>(config, factory);
  }
};

workload::Job remote_job(workload::JobId id) {
  workload::Job j;
  j.id = id;
  j.exec_time = 800.0;
  j.job_class = workload::JobClass::kRemote;
  j.benefit_factor = 5.0;
  return j;
}

TEST(DistributedBase, TransferDeliversJobAndCounts) {
  TwoClusterGrid grid;
  grid.scheds[0]->transfer_job(1, remote_job(5));
  grid.system->simulator().run(50.0);
  ASSERT_EQ(grid.scheds[1]->received.size(), 1u);
  EXPECT_EQ(grid.scheds[1]->received[0].kind,
            grid::MsgKind::kJobTransfer);
  ASSERT_TRUE(grid.scheds[1]->received[0].job.has_value());
  EXPECT_EQ(grid.scheds[1]->received[0].job->id, 5u);
  EXPECT_EQ(grid.system->metrics().snapshot().transfers, 1u);
}

TEST(DistributedBase, DemandHandshakeTransfersWhenRemoteWins) {
  TwoClusterGrid grid;
  ProbePolicy& holder = *grid.scheds[0];
  // Pre-load local table with misery so local_att is large.
  for (int i = 0; i < 40; ++i) holder.deliver_job(remote_job(200 + i));
  grid.system->simulator().run(10.0);
  // Offer a job to the idle cluster 1, which quotes its ATT (ERT only).
  holder.request_demand(1, remote_job(9));
  grid.system->simulator().run(50.0);
  // The job was transferred to cluster 1 (it received a kJobTransfer).
  ASSERT_EQ(grid.scheds[1]->received.size(), 2u);
  EXPECT_EQ(grid.scheds[1]->received[0].kind,
            grid::MsgKind::kDemandRequest);
  EXPECT_DOUBLE_EQ(grid.scheds[1]->received[0].a, 800.0);
  EXPECT_EQ(grid.scheds[1]->received[1].kind, grid::MsgKind::kJobTransfer);
  ASSERT_TRUE(grid.scheds[1]->received[1].job.has_value());
  EXPECT_EQ(grid.scheds[1]->received[1].job->id, 9u);
  // The reply settled the negotiation: a repeat of it is ignored.
  ASSERT_FALSE(holder.received.empty());
  const grid::RmsMessage reply = holder.received.back();
  ASSERT_EQ(reply.kind, grid::MsgKind::kDemandReply);
  EXPECT_FALSE(holder.decide_demand_reply(reply));
}

TEST(DistributedBase, DemandReplyForUnknownTokenIgnored) {
  TwoClusterGrid grid;
  grid::RmsMessage reply;
  reply.kind = grid::MsgKind::kDemandReply;
  reply.token = 12345;
  reply.from = 1;
  EXPECT_FALSE(grid.scheds[0]->decide_demand_reply(reply));
}

TEST(DistributedBase, ReplyDemandQuotesAttAndRus) {
  TwoClusterGrid grid;
  grid::RmsMessage demand;
  demand.kind = grid::MsgKind::kDemandRequest;
  demand.token = 3;
  demand.from = 0;
  demand.a = 400.0;  // demand units
  grid.scheds[1]->deliver_message(demand);
  grid.system->simulator().run(50.0);
  ASSERT_GE(grid.scheds[0]->received.size(), 1u);
  const auto& reply = grid.scheds[0]->received.back();
  EXPECT_EQ(reply.kind, grid::MsgKind::kDemandReply);
  EXPECT_EQ(reply.token, 3u);
  // Idle cluster: AWT 0, so ATT == ERT == demand / service_rate.
  EXPECT_NEAR(reply.a, 400.0 / 8.0, 1e-9);
  EXPECT_DOUBLE_EQ(reply.b, 0.0);  // RUS of an idle cluster
}

TEST(MsgKind, AllKindsHaveNames) {
  for (int k = 0; k <= static_cast<int>(grid::MsgKind::kNoJob); ++k) {
    EXPECT_STRNE(grid::to_string(static_cast<grid::MsgKind>(k)), "?");
  }
}

}  // namespace
}  // namespace scal::rms
