#include "grid/system.hpp"

#include <gtest/gtest.h>

#include "rms/factory.hpp"
#include "rms/scenario.hpp"

namespace scal::grid {
namespace {

GridConfig small_config(RmsKind rms = RmsKind::kLowest) {
  GridConfig config;
  config.rms = rms;
  config.topology.nodes = 80;
  config.cluster_size = 20;
  config.horizon = 400.0;
  config.workload.mean_interarrival = 1.0;
  config.seed = 42;
  return config;
}

TEST(GridSystem, BuildsConsistentLayout) {
  GridSystem system(small_config(), rms::scheduler_factory(RmsKind::kLowest));
  EXPECT_EQ(system.cluster_count(), 4u);
  for (ClusterId c = 0; c < system.cluster_count(); ++c) {
    EXPECT_EQ(system.resource_count(c),
              system.layout().clusters[c].resource_nodes.size());
    EXPECT_EQ(&system.scheduler_for(c), &system.scheduler_for(c));
  }
}

TEST(GridSystem, CentralHasSingleScheduler) {
  GridSystem system(small_config(RmsKind::kCentral),
                    rms::scheduler_factory(RmsKind::kCentral));
  SchedulerBase& s0 = system.scheduler_for(0);
  for (ClusterId c = 1; c < system.cluster_count(); ++c) {
    EXPECT_EQ(&system.scheduler_for(c), &s0);
  }
}

TEST(GridSystem, DistributedHasPerClusterSchedulers) {
  GridSystem system(small_config(), rms::scheduler_factory(RmsKind::kLowest));
  EXPECT_NE(&system.scheduler_for(0), &system.scheduler_for(1));
  EXPECT_EQ(system.scheduler_for(2).cluster(), 2u);
}

TEST(GridSystem, RunProducesConservedJobAccounting) {
  GridSystem system(small_config(), rms::scheduler_factory(RmsKind::kLowest));
  const SimulationResult r = system.run();
  EXPECT_GT(r.jobs_arrived, 0u);
  EXPECT_EQ(r.jobs_local + r.jobs_remote, r.jobs_arrived);
  EXPECT_EQ(r.jobs_completed + r.jobs_unfinished, r.jobs_arrived);
  EXPECT_EQ(r.jobs_succeeded + r.jobs_missed_deadline, r.jobs_completed);
}

TEST(GridSystem, RunTwiceThrows) {
  GridSystem system(small_config(), rms::scheduler_factory(RmsKind::kLowest));
  system.run();
  EXPECT_THROW(system.run(), std::logic_error);
}

TEST(GridSystem, WorkTermsArePositiveAndEfficiencySane) {
  GridSystem system(small_config(), rms::scheduler_factory(RmsKind::kLowest));
  const SimulationResult r = system.run();
  EXPECT_GT(r.F, 0.0);
  EXPECT_GT(r.G(), 0.0);
  EXPECT_GT(r.H(), 0.0);
  EXPECT_GT(r.efficiency(), 0.0);
  EXPECT_LT(r.efficiency(), 1.0);
}

TEST(GridSystem, NullFactoryRejected) {
  EXPECT_THROW(GridSystem(small_config(), nullptr), std::invalid_argument);
}

TEST(GridSystem, InvalidConfigRejectedAtConstruction) {
  GridConfig config = small_config();
  config.service_rate = -1.0;
  EXPECT_THROW(GridSystem(config, rms::scheduler_factory(RmsKind::kLowest)),
               std::invalid_argument);
}

TEST(GridSystem, UpdatesFlowToSchedulers) {
  const SimulationResult r = Scenario(small_config()).run();
  EXPECT_GT(r.updates_received, 0u);
  EXPECT_GT(r.network_messages, 0u);
  EXPECT_GT(r.events_dispatched, 0u);
}

TEST(GridSystem, SuppressionReducesUpdates) {
  GridConfig on = small_config();
  GridConfig off = small_config();
  off.update_suppression = false;
  const auto r_on = Scenario(on).run();
  const auto r_off = Scenario(off).run();
  EXPECT_LT(r_on.updates_received, r_off.updates_received);
  EXPECT_GT(r_on.updates_suppressed, 0u);
  EXPECT_EQ(r_off.updates_suppressed, 0u);
}

TEST(GridSystem, MoreEstimatorsMultiplyUpdateTraffic) {
  GridConfig one = small_config();
  GridConfig three = small_config();
  three.estimators_per_cluster = 3;
  const auto r1 = Scenario(one).run();
  const auto r3 = Scenario(three).run();
  // Replicated estimators each receive the full update stream.
  EXPECT_GT(r3.updates_received, 2 * r1.updates_received);
}

TEST(GridSystem, LinkDelayScaleAffectsPredictedDelay) {
  GridConfig config = small_config();
  GridSystem a(config, rms::scheduler_factory(config.rms));
  config.tuning.link_delay_scale = 0.5;
  GridSystem b(config, rms::scheduler_factory(config.rms));
  const auto& layout = a.layout();
  const net::NodeId n0 = layout.clusters[0].scheduler_node;
  const net::NodeId n1 = layout.clusters[1].scheduler_node;
  EXPECT_NEAR(b.network().predict_delay(n0, n1, 8.0),
              0.5 * a.network().predict_delay(n0, n1, 8.0), 1e-9);
}

TEST(GridSystem, RunsOverALentSiteLikeOverItsOwn) {
  const GridConfig config = small_config();
  Site site(config);
  GridConfig other_kind = config;
  other_kind.rms = RmsKind::kSymmetric;
  other_kind.tuning.link_delay_scale = 0.5;
  // Systems take turns on one site; each matches a private-site build.
  for (const GridConfig& c : {config, other_kind, config}) {
    GridSystem lent(site, c, rms::scheduler_factory(c.rms));
    EXPECT_EQ(&lent.layout(), &site.layout());
    const SimulationResult a = lent.run();
    const SimulationResult b = Scenario(c).run();
    EXPECT_EQ(a.F, b.F);
    EXPECT_EQ(a.G(), b.G());
    EXPECT_EQ(a.events_dispatched, b.events_dispatched);
    EXPECT_EQ(a.network_messages, b.network_messages);
  }
}

TEST(GridSystem, RejectsASiteBuiltForOtherSiteFields) {
  const GridConfig config = small_config();
  Site site(config);
  GridConfig seeded = config;
  seeded.seed = 7;
  EXPECT_THROW(GridSystem(site, seeded, rms::scheduler_factory(seeded.rms)),
               std::invalid_argument);
  GridConfig bigger = config;
  bigger.topology.nodes = 100;
  EXPECT_THROW(GridSystem(site, bigger, rms::scheduler_factory(bigger.rms)),
               std::invalid_argument);
}

}  // namespace
}  // namespace scal::grid
