// HIER (two-level manager extension) behavior.

#include <gtest/gtest.h>

#include "rms/scenario.hpp"

namespace scal::rms {
namespace {

grid::GridConfig hier_config(std::uint64_t seed = 42) {
  grid::GridConfig config;
  config.rms = grid::RmsKind::kHierarchical;
  config.topology.nodes = 120;
  config.cluster_size = 20;
  config.horizon = 600.0;
  config.workload.mean_interarrival = 0.9;
  config.seed = seed;
  return config;
}

TEST(Hierarchical, RoundTripsThroughStrings) {
  EXPECT_EQ(grid::to_string(grid::RmsKind::kHierarchical), "HIER");
  EXPECT_EQ(grid::rms_from_string("HIER"), grid::RmsKind::kHierarchical);
}

TEST(Hierarchical, CompletesAndConserves) {
  const auto r = Scenario(hier_config()).run();
  EXPECT_GT(r.jobs_completed, 0u);
  EXPECT_EQ(r.jobs_completed + r.jobs_unfinished, r.jobs_arrived);
  EXPECT_EQ(r.jobs_succeeded + r.jobs_missed_deadline, r.jobs_completed);
  EXPECT_GT(static_cast<double>(r.jobs_completed) /
                static_cast<double>(r.jobs_arrived),
            0.7);
}

TEST(Hierarchical, Deterministic) {
  const auto a = Scenario(hier_config(9)).run();
  const auto b = Scenario(hier_config(9)).run();
  EXPECT_DOUBLE_EQ(a.G(), b.G());
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
}

TEST(Hierarchical, MovesRemoteWorkViaRoot) {
  const auto r = Scenario(hier_config()).run();
  // REMOTE jobs are transferred (leaf -> root, often root -> leaf).
  EXPECT_GT(r.transfers, r.jobs_remote / 2);
  // Digests flow (counted as adverts).
  EXPECT_GT(r.adverts, 0u);
  // No polling or auctions in the hierarchy.
  EXPECT_EQ(r.polls, 0u);
  EXPECT_EQ(r.auctions, 0u);
}

TEST(Hierarchical, CheaperPerJobThanCentralAtScale) {
  // The point of the hierarchy: root decisions scan clusters, not
  // resources, so per-job scheduler overhead grows far slower with the
  // pool than CENTRAL's.
  auto per_job_g = [](grid::RmsKind kind, std::size_t nodes) {
    grid::GridConfig config = hier_config();
    config.rms = kind;
    config.topology.nodes = nodes;
    config.workload.mean_interarrival = 0.9 * 120.0 /
                                        static_cast<double>(nodes);
    const auto r = Scenario(config).run();
    return r.G_scheduler / static_cast<double>(r.jobs_arrived);
  };
  const double hier_growth =
      per_job_g(grid::RmsKind::kHierarchical, 480) /
      per_job_g(grid::RmsKind::kHierarchical, 120);
  const double central_growth = per_job_g(grid::RmsKind::kCentral, 480) /
                                per_job_g(grid::RmsKind::kCentral, 120);
  EXPECT_LT(hier_growth, central_growth);
}

TEST(Hierarchical, LocalJobsStayLocal) {
  grid::GridConfig config = hier_config();
  // Make every job LOCAL: no transfers should happen at all.
  config.workload.exec_model = workload::ExecTimeModel::kUniform;
  config.workload.uniform_lo = 50.0;
  config.workload.uniform_hi = 300.0;
  const auto r = Scenario(config).run();
  EXPECT_EQ(r.jobs_remote, 0u);
  EXPECT_EQ(r.transfers, 0u);
}

}  // namespace
}  // namespace scal::rms
