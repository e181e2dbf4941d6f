// The pull interface: WorkloadSource::next() semantics, the bounding and
// replay adapters, collect() as the one drain, and the byte-budgeted
// ArrivalCache that arrivals() memoizes streams in.  The contract under
// test is the streaming tier's foundation: pulling the horizon-bounded
// stack yields exactly the jobs the generator emits before the horizon,
// job for job, while holding O(1) state.

#include "workload/stream.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "workload/arrival_cache.hpp"
#include "workload/generator.hpp"
#include "workload/source.hpp"
#include "workload/trace.hpp"
#include "support/draw_jobs.hpp"

namespace scal::workload {
namespace {

WorkloadConfig small_workload() {
  WorkloadConfig config;
  config.mean_interarrival = 2.0;
  config.clusters = 6;
  return config;
}

std::vector<Job> jobs_at(std::initializer_list<double> arrivals) {
  std::vector<Job> jobs;
  JobId id = 0;
  for (const double t : arrivals) {
    Job job;
    job.id = id++;
    job.arrival = t;
    job.exec_time = 1.0;
    jobs.push_back(job);
  }
  return jobs;
}

std::unique_ptr<VectorReplayStream> replay(std::vector<Job> jobs) {
  return std::make_unique<VectorReplayStream>(
      std::make_shared<const std::vector<Job>>(std::move(jobs)));
}

void expect_same_jobs(const std::vector<Job>& actual,
                      const std::vector<Job>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id);
    EXPECT_EQ(actual[i].arrival, expected[i].arrival);
    EXPECT_EQ(actual[i].exec_time, expected[i].exec_time);
    EXPECT_EQ(actual[i].benefit_factor, expected[i].benefit_factor);
    EXPECT_EQ(actual[i].origin_cluster, expected[i].origin_cluster);
  }
}

TEST(JobStream, NextDrainsInOrderThenStaysExhausted) {
  auto stream = replay(jobs_at({1.0, 2.0, 3.0}));
  Job job;
  for (const double expected : {1.0, 2.0, 3.0}) {
    ASSERT_TRUE(stream->next(job));
    EXPECT_DOUBLE_EQ(job.arrival, expected);
  }
  EXPECT_FALSE(stream->next(job));
  EXPECT_FALSE(stream->next(job));  // exhaustion is terminal
}

TEST(VectorReplayStream, SharesTheVectorWithoutCopying) {
  auto jobs = std::make_shared<const std::vector<Job>>(jobs_at({1.0, 2.0}));
  VectorReplayStream a(jobs);
  VectorReplayStream b(jobs);  // independent cursors over one allocation
  Job job;
  ASSERT_TRUE(a.next(job));
  ASSERT_TRUE(a.next(job));
  EXPECT_FALSE(a.next(job));
  ASSERT_TRUE(b.next(job));
  EXPECT_DOUBLE_EQ(job.arrival, 1.0);
}

TEST(VectorReplayStream, NullVectorIsEmpty) {
  VectorReplayStream stream(nullptr);
  Job job;
  EXPECT_FALSE(stream.next(job));
}

TEST(BoundedStream, DropsTheFirstBeyondHorizonJobAndTerminates) {
  // The first job at or past the horizon is consumed from the base
  // stream and dropped; the bound is exclusive.
  BoundedStream stream(replay(jobs_at({1.0, 4.0, 5.0, 6.0})), 5.0);
  Job job;
  ASSERT_TRUE(stream.next(job));
  EXPECT_DOUBLE_EQ(job.arrival, 1.0);
  ASSERT_TRUE(stream.next(job));
  EXPECT_DOUBLE_EQ(job.arrival, 4.0);
  EXPECT_FALSE(stream.next(job));  // 5.0 >= horizon: dropped, terminal
  EXPECT_FALSE(stream.next(job));  // even though 6.0 < infinity remains
}

TEST(Collect, MaterializesTheStreamUpToMaxJobs) {
  const std::vector<Job> expected = jobs_at({1.0, 2.0, 3.0});
  auto full = replay(expected);
  expect_same_jobs(collect(*full), expected);
}

TEST(MakeStream, PullsExactlyWhatGenerateUntilMaterializes) {
  // The horizon-bounded stack is the generator, seeded the way the grid
  // seeds it, cut at the first arrival at or past the horizon.
  const WorkloadConfig config = small_workload();
  WorkloadGenerator gen(config, util::RandomStream(42, "workload"));
  const auto expected = test::jobs_before(gen, 400.0);
  ASSERT_FALSE(expected.empty());

  auto stream = make_source(SourceSpec{}, config, 42, 400.0);
  std::vector<Job> pulled;
  Job job;
  while (stream->next(job)) pulled.push_back(job);
  expect_same_jobs(pulled, expected);
}

TEST(TraceStatsAccumulator, BitwiseIdenticalToSummarize) {
  const WorkloadConfig config = small_workload();
  const auto jobs = collect(*make_source(SourceSpec{}, config, 42, 600.0));
  ASSERT_GT(jobs.size(), 10u);

  TraceStatsAccumulator acc;
  for (const Job& job : jobs) acc.add(job);
  const TraceStats streamed = acc.stats();
  const TraceStats eager = summarize(jobs);

  // The streaming result path swaps summarize() for the fold; the
  // manifest stays byte-identical only if every field matches bitwise.
  EXPECT_EQ(streamed.jobs, eager.jobs);
  EXPECT_EQ(streamed.local_jobs, eager.local_jobs);
  EXPECT_EQ(streamed.remote_jobs, eager.remote_jobs);
  EXPECT_EQ(streamed.mean_interarrival, eager.mean_interarrival);
  EXPECT_EQ(streamed.mean_exec_time, eager.mean_exec_time);
  EXPECT_EQ(streamed.max_exec_time, eager.max_exec_time);
  EXPECT_EQ(streamed.total_demand, eager.total_demand);
  EXPECT_EQ(streamed.span, eager.span);
}

TEST(TraceStatsAccumulator, EmptyMatchesEmptySummary) {
  const TraceStats streamed = TraceStatsAccumulator{}.stats();
  const TraceStats eager = summarize({});
  EXPECT_EQ(streamed.jobs, eager.jobs);
  EXPECT_EQ(streamed.mean_interarrival, eager.mean_interarrival);
  EXPECT_EQ(streamed.span, eager.span);
}

TEST(ArrivalCacheBudget, EvictsOldestFirstWhenOverBudget) {
  ArrivalCache cache;  // local instance: budget tests stay isolated
  cache.set_max_bytes(3 * sizeof(Job));
  const ArrivalCache::Key k1 = {1, 1};
  const ArrivalCache::Key k2 = {2, 2};
  auto two_jobs = std::make_shared<const std::vector<Job>>(2);
  cache.store(k1, two_jobs);
  EXPECT_EQ(cache.bytes(), 2 * sizeof(Job));
  EXPECT_EQ(cache.evictions(), 0u);

  // Storing two more jobs exceeds the budget; the oldest entry goes.
  cache.store(k2, std::make_shared<const std::vector<Job>>(2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), 2 * sizeof(Job));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.lookup(k1), nullptr);
  EXPECT_NE(cache.lookup(k2), nullptr);
}

TEST(ArrivalCacheBudget, OversizedEntryIsReturnedButNotMemoized) {
  ArrivalCache cache;
  cache.set_max_bytes(sizeof(Job));
  auto huge = std::make_shared<const std::vector<Job>>(5);
  // The caller's stream still works; it just is not resident.
  EXPECT_EQ(cache.store({9, 9}, huge).get(), huge.get());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_GE(cache.evictions(), 1u);
}

TEST(ArrivalCacheBudget, ZeroBudgetIsUnbounded) {
  ArrivalCache cache;
  EXPECT_EQ(cache.max_bytes(), 0u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    cache.store({i, i}, std::make_shared<const std::vector<Job>>(4));
  }
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(CachedStream, OneShotMissStreamsLiveAndCountsTheSkip) {
  ArrivalCache& cache = ArrivalCache::instance();
  cache.clear();
  const WorkloadConfig config = small_workload();
  const std::array<std::uint64_t, 2> key = {0x51717ULL, 0xf100dULL};
  const std::uint64_t skips_before = cache.store_skips();

  Arrivals pulled =
      arrivals(key, SourceSpec{}, config, 42, 400.0, /*memoize=*/false);
  EXPECT_FALSE(pulled.from_cache);
  ASSERT_NE(pulled.source, nullptr);
  const std::vector<Job> live = collect(*pulled.source);
  ASSERT_FALSE(live.empty());

  // Nothing was stored: the one-shot run kept per-job memory O(1).
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.store_skips(), skips_before + 1);

  // The live stream is still the canonical stream, job for job.
  expect_same_jobs(live,
                   collect(*make_source(SourceSpec{}, config, 42, 400.0)));
  cache.clear();
}

TEST(CachedStream, ReusableMissStoresAndHitReplays) {
  ArrivalCache& cache = ArrivalCache::instance();
  cache.clear();
  const WorkloadConfig config = small_workload();
  const std::array<std::uint64_t, 2> key = {0xcafeULL, 0xbeefULL};

  // A memoizing miss collects the stack and stores the vector.
  Arrivals first =
      arrivals(key, SourceSpec{}, config, 42, 400.0, /*memoize=*/true);
  EXPECT_FALSE(first.from_cache);
  const std::vector<Job> generated = collect(*first.source);
  EXPECT_NE(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.store_skips(), 0u);

  // A later pull, memoizing or not, replays the memoized vector.
  Arrivals second =
      arrivals(key, SourceSpec{}, config, 42, 400.0, /*memoize=*/false);
  EXPECT_TRUE(second.from_cache);
  expect_same_jobs(collect(*second.source), generated);
  EXPECT_EQ(cache.store_skips(), 0u);
  cache.clear();
}

}  // namespace
}  // namespace scal::workload
