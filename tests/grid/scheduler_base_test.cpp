// SchedulerBase plumbing, exercised through a minimal probe policy
// wired into a real GridSystem.

#include <gtest/gtest.h>

#include "grid/system.hpp"
#include "workload/trace.hpp"

namespace scal::grid {
namespace {

/// Minimal policy: local least-loaded placement, records everything the
/// base class hands it.
class ProbeScheduler : public SchedulerBase {
 public:
  using SchedulerBase::SchedulerBase;

  std::vector<workload::Job> seen_jobs;
  std::vector<RmsMessage> seen_messages;
  std::size_t batches = 0;

  // Expose protected helpers for the test body.
  using SchedulerBase::busy_fraction;
  using SchedulerBase::least_loaded;
  using SchedulerBase::random_peers;
  using SchedulerBase::table;
  using SchedulerBase::tracks;

 protected:
  void handle_job(workload::Job job) override {
    seen_jobs.push_back(job);
    dispatch(cluster(), least_loaded(cluster()), std::move(job));
  }
  void handle_message(const RmsMessage& msg) override {
    seen_messages.push_back(msg);
  }
  void after_batch(const StatusBatch&) override { ++batches; }
};

GridConfig probe_config() {
  GridConfig config;
  config.topology.nodes = 60;
  config.cluster_size = 20;
  config.horizon = 200.0;
  config.workload.mean_interarrival = 2.0;
  return config;
}

struct ProbeGrid {
  std::vector<ProbeScheduler*> schedulers;
  std::unique_ptr<GridSystem> system;

  explicit ProbeGrid(GridConfig config = probe_config()) {
    SchedulerFactory factory = [this](GridSystem& system, sim::EntityId id,
                                      ClusterId cluster, net::NodeId node) {
      auto sched = std::make_unique<ProbeScheduler>(system, id, cluster,
                                                    node);
      schedulers.push_back(sched.get());
      return sched;
    };
    system = std::make_unique<GridSystem>(std::move(config),
                                          std::move(factory));
  }
};

TEST(SchedulerBase, TablesInitializedOptimistically) {
  ProbeGrid grid;
  ProbeScheduler& sched = *grid.schedulers[0];
  const auto& table = sched.table(sched.cluster());
  EXPECT_EQ(table.size(),
            grid.system->resource_count(sched.cluster()));
  for (const ResourceView& v : table) EXPECT_DOUBLE_EQ(v.load, 0.0);
  EXPECT_DOUBLE_EQ(sched.busy_fraction(sched.cluster()), 0.0);
}

TEST(SchedulerBase, UntrackedClusterThrows) {
  ProbeGrid grid;
  ProbeScheduler& sched = *grid.schedulers[0];
  const auto other = static_cast<ClusterId>(sched.cluster() == 0 ? 1 : 0);
  EXPECT_FALSE(sched.tracks(other));
  EXPECT_THROW(sched.table(other), std::out_of_range);
}

TEST(SchedulerBase, DispatchBumpsTableOptimistically) {
  ProbeGrid grid;
  ProbeScheduler& sched = *grid.schedulers[0];
  workload::Job job;
  job.exec_time = 100.0;
  sched.deliver_job(job);
  grid.system->simulator().run(5.0);
  ASSERT_EQ(sched.seen_jobs.size(), 1u);
  double total_load = 0.0;
  for (const ResourceView& v : sched.table(sched.cluster())) {
    total_load += v.load;
  }
  EXPECT_DOUBLE_EQ(total_load, 1.0);
}

TEST(SchedulerBase, RandomPeersNeverIncludesSelfAndIsDistinct) {
  ProbeGrid grid;
  ProbeScheduler& sched = *grid.schedulers[1];
  for (int trial = 0; trial < 200; ++trial) {
    const auto peers = sched.random_peers(2);
    ASSERT_EQ(peers.size(), 2u);
    EXPECT_NE(peers[0], peers[1]);
    for (const ClusterId p : peers) {
      EXPECT_NE(p, sched.cluster());
      EXPECT_LT(p, grid.system->cluster_count());
    }
  }
}

TEST(SchedulerBase, RandomPeersCapsAtClusterCount) {
  ProbeGrid grid;
  const auto peers = grid.schedulers[0]->random_peers(99);
  EXPECT_EQ(peers.size(), grid.system->cluster_count() - 1);
}

TEST(SchedulerBase, BatchesFlowDuringRun) {
  ProbeGrid grid;
  grid.system->run();
  std::size_t total_batches = 0;
  for (const auto* sched : grid.schedulers) {
    total_batches += sched->batches;
  }
  EXPECT_GT(total_batches, 0u);
}

TEST(SchedulerBase, ParkedJobsDefaultsToZero) {
  ProbeGrid grid;
  EXPECT_EQ(grid.schedulers[0]->parked_jobs(), 0u);
}

TEST(SchedulerBase, TraceReplayDrivesDeliverJob) {
  // Build a 3-job trace, replay it, and check the probe saw exactly it.
  std::vector<workload::Job> jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = i;
    jobs[i].arrival = 10.0 * static_cast<double>(i + 1);
    jobs[i].exec_time = 50.0;
    jobs[i].benefit_factor = 5.0;
    jobs[i].benefit_deadline = 250.0;
    jobs[i].origin_cluster = static_cast<std::uint32_t>(i);
  }
  const std::string path =
      ::testing::TempDir() + "/scal_probe_trace.csv";
  workload::save_trace_file(jobs, path);

  GridConfig config = probe_config();
  config.workload_source = workload::SourceSpec::parse("trace:" + path);
  ProbeGrid grid(config);
  const SimulationResult r = grid.system->run();
  EXPECT_EQ(r.jobs_arrived, 3u);
  std::size_t seen = 0;
  for (const auto* sched : grid.schedulers) {
    seen += sched->seen_jobs.size();
  }
  EXPECT_EQ(seen, 3u);
  std::remove(path.c_str());
}

TEST(SchedulerBase, TraceReplayDropsJobsPastHorizon) {
  std::vector<workload::Job> jobs(2);
  jobs[0].arrival = 10.0;
  jobs[0].exec_time = 10.0;
  jobs[0].benefit_factor = 5.0;
  jobs[1].arrival = 10000.0;  // beyond the 200-unit horizon
  jobs[1].exec_time = 10.0;
  jobs[1].benefit_factor = 5.0;
  const std::string path =
      ::testing::TempDir() + "/scal_probe_trace_horizon.csv";
  workload::save_trace_file(jobs, path);

  GridConfig config = probe_config();
  config.workload_source = workload::SourceSpec::parse("trace:" + path);
  ProbeGrid grid(config);
  const SimulationResult r = grid.system->run();
  EXPECT_EQ(r.jobs_arrived, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace scal::grid
