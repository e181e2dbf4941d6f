#include "rms/scenario.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "exec/thread_pool.hpp"
#include "rms/base.hpp"
#include "rms/factory.hpp"

namespace scal {
namespace {

grid::GridConfig small_config() {
  grid::GridConfig config;
  config.topology.nodes = 60;
  config.horizon = 300.0;
  config.workload.mean_interarrival = 2.0;
  config.seed = 11;
  return config;
}

TEST(Scenario, RunEqualsBuildThenRun) {
  grid::GridConfig config = small_config();
  config.rms = grid::RmsKind::kLowest;
  const grid::SimulationResult via_run = Scenario(config).run();
  const grid::SimulationResult via_build = Scenario(config).build()->run();
  EXPECT_EQ(via_run.events_dispatched, via_build.events_dispatched);
  EXPECT_DOUBLE_EQ(via_run.G(), via_build.G());
  EXPECT_DOUBLE_EQ(via_run.efficiency(), via_build.efficiency());
  EXPECT_EQ(via_run.jobs_completed, via_build.jobs_completed);
}

TEST(Scenario, SettersLandInConfig) {
  Scenario s;
  s.rms(grid::RmsKind::kCentral)
      .nodes(80)
      .seed(99)
      .horizon(500.0)
      .faults("churn:mtbf=400,mttr=40");
  EXPECT_EQ(s.config().rms, grid::RmsKind::kCentral);
  EXPECT_EQ(s.config().topology.nodes, 80u);
  EXPECT_EQ(s.config().seed, 99u);
  EXPECT_DOUBLE_EQ(s.config().horizon, 500.0);
  EXPECT_TRUE(s.config().faults.any());
  EXPECT_DOUBLE_EQ(s.config().faults.churn.mtbf, 400.0);
}

TEST(Scenario, BadFaultSpecThrows) {
  Scenario s;
  EXPECT_THROW(s.faults("nonsense:spec"), std::exception);
}

TEST(Scenario, IsReusableAndDeterministic) {
  Scenario s{small_config()};
  s.rms(grid::RmsKind::kReserve);
  const auto first = s.run();
  const auto second = s.run();
  EXPECT_EQ(first.events_dispatched, second.events_dispatched);
  EXPECT_DOUBLE_EQ(first.G(), second.G());
}

TEST(Scenario, CustomSchedulerFactoryIsUsed) {
  struct CountingScheduler : rms::DistributedSchedulerBase {
    using DistributedSchedulerBase::DistributedSchedulerBase;
    void handle_job(workload::Job job) override {
      dispatch(cluster(), 0, std::move(job));
    }
  };
  int built = 0;
  Scenario s{small_config()};
  s.scheduler([&built](grid::GridSystem& system, sim::EntityId id,
                       grid::ClusterId cluster, net::NodeId node)
                  -> std::unique_ptr<grid::SchedulerBase> {
    ++built;
    return std::make_unique<CountingScheduler>(system, id, cluster, node);
  });
  auto system = s.build();
  EXPECT_EQ(built, static_cast<int>(system->cluster_count()));
}

TEST(Scenario, RunKindsMatchesIndividualRuns) {
  const Scenario base{small_config()};
  const std::vector<grid::RmsKind> kinds = {grid::RmsKind::kCentral,
                                            grid::RmsKind::kLowest,
                                            grid::RmsKind::kSymmetric};
  const auto batch = Scenario::run_kinds(base, kinds);
  ASSERT_EQ(batch.size(), kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const auto solo = Scenario(base).rms(kinds[i]).run();
    EXPECT_EQ(batch[i].events_dispatched, solo.events_dispatched) << i;
    EXPECT_DOUBLE_EQ(batch[i].G(), solo.G()) << i;
  }
}

TEST(Scenario, RunKindsBitIdenticalUnderPool) {
  const Scenario base{small_config()};
  const std::vector<grid::RmsKind> kinds = {grid::RmsKind::kCentral,
                                            grid::RmsKind::kLowest,
                                            grid::RmsKind::kReserve};
  const auto serial = Scenario::run_kinds(base, kinds);
  exec::ThreadPool pool(2);
  const auto parallel = Scenario::run_kinds(base, kinds, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].events_dispatched, parallel[i].events_dispatched);
    EXPECT_DOUBLE_EQ(serial[i].G(), parallel[i].G());
    EXPECT_DOUBLE_EQ(serial[i].efficiency(), parallel[i].efficiency());
  }
}

}  // namespace
}  // namespace scal
