// The streaming tier's bit-identity contract: a run with
// result_mode = streaming pulls a cache miss live from its source, one
// pending arrival at a time, and folds results online, yet every
// figure-facing number — F, G, H, the job counters, the protocol
// counters, the mean response, the workload stats — is EXACTLY the
// number the materialized full-mode run produces, for every RMS kind,
// with faults on, and at any worker-pool width.  Only the p95 differs by
// design (histogram estimate); the tests pin everything else with
// operator==.

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "core/procedure.hpp"
#include "exec/thread_pool.hpp"
#include "grid/digest.hpp"
#include "grid/system.hpp"
#include "rms/factory.hpp"
#include "rms/scenario.hpp"
#include "workload/arrival_cache.hpp"
#include "workload/trace.hpp"
#include "support/result_equal.hpp"

namespace scal {
namespace {

grid::GridConfig config_for(grid::RmsKind kind, grid::ResultMode mode,
                            std::uint64_t seed = 42) {
  grid::GridConfig config;
  config.rms = kind;
  config.topology.nodes = 120;
  config.horizon = 400.0;
  config.workload.mean_interarrival = 1.0;
  config.seed = seed;
  config.result_mode = mode;
  return config;
}

class StreamingIdentityTest : public ::testing::TestWithParam<grid::RmsKind> {
};

/// Streaming vs full mode: everything but the p95 is bit-identical.
void expect_same_but_p95(const grid::SimulationResult& full,
                         const grid::SimulationResult& streaming) {
  test::expect_same_result(
      full, streaming,
      {{"p95_response", "streaming p95 is an HDR-histogram estimate"},
       {"result_mode", "differs by construction"},
       test::kFromCache});
}

TEST_P(StreamingIdentityTest, MatchesFullModeBitForBit) {
  workload::ArrivalCache::instance().clear();
  const auto full =
      Scenario(config_for(GetParam(), grid::ResultMode::kFull)).run();
  const auto streaming =
      Scenario(config_for(GetParam(), grid::ResultMode::kStreaming)).run();
  SCOPED_TRACE(grid::to_string(GetParam()));
  expect_same_but_p95(full, streaming);
  EXPECT_EQ(full.result_mode, grid::ResultMode::kFull);
  EXPECT_EQ(streaming.result_mode, grid::ResultMode::kStreaming);
  // The chained arrival path keeps exactly one pending slot in flight
  // and recycles it once per job.
  EXPECT_EQ(streaming.arena_high_water, 1u);
  EXPECT_EQ(streaming.arena_reuses, streaming.jobs_arrived);
  // The approximate p95 still has to land near the exact one (the
  // histogram's relative error bound is one sub-bucket, 12.5%).
  EXPECT_NEAR(streaming.p95_response, full.p95_response,
              0.13 * full.p95_response + 1e-9)
      << grid::to_string(GetParam());
}

TEST_P(StreamingIdentityTest, MatchesFullModeUnderFaults) {
  workload::ArrivalCache::instance().clear();
  grid::GridConfig full_config =
      config_for(GetParam(), grid::ResultMode::kFull, 7);
  full_config.faults =
      fault::FaultPlan::parse("churn:mtbf=120,mttr=15;net:drop=0.02");
  grid::GridConfig streaming_config = full_config;
  streaming_config.result_mode = grid::ResultMode::kStreaming;
  const auto full = Scenario(full_config).run();
  const auto streaming = Scenario(streaming_config).run();
  SCOPED_TRACE(grid::to_string(GetParam()));
  EXPECT_GT(full.resource_crashes, 0u);
  expect_same_but_p95(full, streaming);
}

// Every kind, including the extension policies — the paper's seven
// plus HIER and RANDOM.
constexpr grid::RmsKind kEveryRmsKind[] = {
    grid::RmsKind::kCentral,          grid::RmsKind::kLowest,
    grid::RmsKind::kReserve,          grid::RmsKind::kAuction,
    grid::RmsKind::kSenderInitiated,  grid::RmsKind::kReceiverInitiated,
    grid::RmsKind::kSymmetric,        grid::RmsKind::kHierarchical,
    grid::RmsKind::kRandom,
};

INSTANTIATE_TEST_SUITE_P(AllKinds, StreamingIdentityTest,
                         ::testing::ValuesIn(kEveryRmsKind),
                         [](const auto& info) {
                           std::string name = grid::to_string(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(StreamingJobLog, RecordsTheIdenticalLifecycleStream) {
  workload::ArrivalCache::instance().clear();
  grid::GridConfig config =
      config_for(grid::RmsKind::kLowest, grid::ResultMode::kFull);
  config.job_log = true;
  const auto full_system = Scenario(config).build();
  full_system->run();
  config.result_mode = grid::ResultMode::kStreaming;
  const auto streaming_system = Scenario(config).build();
  streaming_system->run();

  const grid::JobLog& a = full_system->job_log();
  const grid::JobLog& b = streaming_system->job_log();
  ASSERT_GT(a.size(), 0u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.records()[i].job, b.records()[i].job);
    EXPECT_EQ(a.records()[i].event, b.records()[i].event);
    EXPECT_EQ(a.records()[i].at, b.records()[i].at);
    EXPECT_EQ(a.records()[i].place, b.records()[i].place);
  }
}

TEST(StreamingJobLog, CapacityBoundsTheLogAndCountsDrops) {
  workload::ArrivalCache::instance().clear();
  grid::GridConfig config =
      config_for(grid::RmsKind::kLowest, grid::ResultMode::kStreaming);
  config.job_log = true;
  config.job_log_capacity = 50;
  const auto result = Scenario(config).run();
  EXPECT_EQ(result.job_log_records, 50u);
  EXPECT_GT(result.job_log_dropped, 0u);

  // Unbounded control: the same run keeps everything.
  config.job_log_capacity = 0;
  const auto unbounded = Scenario(config).run();
  EXPECT_EQ(unbounded.job_log_dropped, 0u);
  EXPECT_EQ(unbounded.job_log_records,
            result.job_log_records + result.job_log_dropped);
}

TEST(StreamingArrivals, TiedArrivalsAreDeliveredOnceInTraceOrder) {
  // Several jobs share each arrival time, so an arrival event fires while
  // its successor is due at the same instant: the event must deliver the
  // job it was scheduled for, not the one chained after it.
  const double times[] = {5.0, 5.0, 5.0, 20.0, 20.0, 20.0, 20.0, 60.0, 60.0};
  std::vector<workload::Job> jobs;
  for (std::size_t i = 0; i < std::size(times); ++i) {
    workload::Job job;
    job.id = 100 + 7 * i;
    job.arrival = times[i];
    job.exec_time = 30.0 + 11.0 * static_cast<double>(i);
    job.requested_time = 2.0 * job.exec_time;
    job.benefit_factor = 4.0;
    job.benefit_deadline = 4.0 * job.exec_time;
    job.origin_cluster = static_cast<std::uint32_t>(i % 3);
    jobs.push_back(job);
  }
  const std::string path = ::testing::TempDir() + "/scal_tied_arrivals.csv";
  workload::save_trace_file(jobs, path);

  for (const grid::ResultMode mode :
       {grid::ResultMode::kFull, grid::ResultMode::kStreaming}) {
    SCOPED_TRACE(grid::to_string(mode));
    // A cold cache: full mode stores the trace, streaming mode pulls the
    // live source.
    workload::ArrivalCache::instance().clear();
    grid::GridConfig config = config_for(grid::RmsKind::kLowest, mode);
    config.workload_source = workload::SourceSpec::parse("trace:" + path);
    config.job_log = true;
    const auto system = Scenario(config).build();
    const grid::SimulationResult result = system->run();

    std::vector<workload::JobId> ids;
    std::vector<double> at;
    for (const grid::JobLogRecord& rec : system->job_log().records()) {
      if (rec.event != grid::JobEvent::kArrival) continue;
      ids.push_back(rec.job);
      at.push_back(rec.at);
    }
    ASSERT_EQ(ids.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(ids[i], jobs[i].id) << "arrival record " << i;
      EXPECT_EQ(at[i], jobs[i].arrival) << "arrival record " << i;
    }
    EXPECT_EQ(result.jobs_arrived, jobs.size());
    EXPECT_EQ(result.arena_high_water, 1u);
    EXPECT_EQ(result.arena_reuses, result.jobs_arrived);
  }
  std::remove(path.c_str());
}

TEST(StreamingDigest, ResultModeIsStructural) {
  // Flipping the result mode swaps the sink implementation, so the
  // config digest (the evaluation-cache key) changes, while the
  // workload digest is unchanged: both modes share one ArrivalCache
  // entry.
  const grid::GridConfig full =
      config_for(grid::RmsKind::kLowest, grid::ResultMode::kFull);
  const grid::GridConfig streaming =
      config_for(grid::RmsKind::kLowest, grid::ResultMode::kStreaming);
  EXPECT_NE(grid::config_digest(full), grid::config_digest(streaming));
  EXPECT_EQ(grid::workload_digest(full), grid::workload_digest(streaming));
}

TEST(StreamingParallel, PoolLanesBitIdenticalToSerial) {
  workload::ArrivalCache::instance().clear();
  grid::GridConfig base =
      config_for(grid::RmsKind::kLowest, grid::ResultMode::kStreaming, 5);
  base.horizon = 200.0;
  core::ProcedureConfig procedure;
  procedure.scase = core::ScalingCase::case1_network_size();
  procedure.scale_factors = {1, 2};
  procedure.tuner.evaluations = 3;
  procedure.tuner.e0 = 0.8;
  procedure.tuner.band = 0.1;
  procedure.warm_evaluations = 2;

  const core::CaseResult serial = core::measure_scalability(
      base, grid::RmsKind::kLowest, procedure);
  exec::ThreadPool pool(3);
  procedure.pool = &pool;
  const core::CaseResult parallel = core::measure_scalability(
      base, grid::RmsKind::kLowest, procedure);

  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(serial.points[i].sim.F, parallel.points[i].sim.F);
    EXPECT_EQ(serial.points[i].sim.G(), parallel.points[i].sim.G());
    EXPECT_EQ(serial.points[i].sim.mean_response,
              parallel.points[i].sim.mean_response);
    EXPECT_EQ(serial.points[i].sim.jobs_arrived,
              parallel.points[i].sim.jobs_arrived);
  }
}

}  // namespace
}  // namespace scal
