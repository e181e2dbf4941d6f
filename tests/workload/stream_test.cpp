// The pull-based workload surface: JobStream next()/peek() semantics,
// the bounding and replay adapters, the materializing shims, and the
// byte-budgeted ArrivalCache the streams are memoized in.  The contract
// under test is the streaming tier's foundation: pulling a stream yields
// exactly the jobs the eager generate_until path materialized, job for
// job, while holding O(1) state.

#include "workload/stream.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "workload/arrival_cache.hpp"
#include "workload/generator.hpp"
#include "workload/source.hpp"
#include "workload/trace.hpp"

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
  EXPECT_EQ(stream->produced(), 3u);
}

TEST(JobStream, PeekDoesNotConsume) {
  auto stream = replay(jobs_at({1.0, 2.0}));
  const Job* ahead = stream->peek();
  ASSERT_NE(ahead, nullptr);
  EXPECT_DOUBLE_EQ(ahead->arrival, 1.0);
  // Repeated peeks see the same job; produced() is untouched.
  EXPECT_DOUBLE_EQ(stream->peek()->arrival, 1.0);
  EXPECT_EQ(stream->produced(), 0u);

  Job job;
  ASSERT_TRUE(stream->next(job));  // the peeked job, now consumed
  EXPECT_DOUBLE_EQ(job.arrival, 1.0);
  EXPECT_EQ(stream->produced(), 1u);

  EXPECT_DOUBLE_EQ(stream->peek()->arrival, 2.0);
  ASSERT_TRUE(stream->next(job));
  EXPECT_DOUBLE_EQ(job.arrival, 2.0);
  EXPECT_EQ(stream->peek(), nullptr);  // exhausted
  EXPECT_FALSE(stream->next(job));
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
  // generate_until contract: the first job at or past the horizon is
  // consumed from the base stream and dropped; the bound is exclusive.
  BoundedStream stream(replay(jobs_at({1.0, 4.0, 5.0, 6.0})), 5.0);
  Job job;
  ASSERT_TRUE(stream.next(job));
  EXPECT_DOUBLE_EQ(job.arrival, 1.0);
  ASSERT_TRUE(stream.next(job));
  EXPECT_DOUBLE_EQ(job.arrival, 4.0);
  EXPECT_FALSE(stream.next(job));  // 5.0 >= horizon: dropped, terminal
  EXPECT_FALSE(stream.next(job));  // even though 6.0 < infinity remains
}

TEST(BoundedStream, MaxJobsCapsEmission) {
  BoundedStream stream(replay(jobs_at({1.0, 2.0, 3.0, 4.0})), 100.0, 2);
  Job job;
  ASSERT_TRUE(stream.next(job));
  ASSERT_TRUE(stream.next(job));
  EXPECT_DOUBLE_EQ(job.arrival, 2.0);
  EXPECT_FALSE(stream.next(job));
}

TEST(Collect, MaterializesTheStreamUpToMaxJobs) {
  const std::vector<Job> expected = jobs_at({1.0, 2.0, 3.0});
  auto full = replay(expected);
  expect_same_jobs(collect(*full), expected);

  auto capped = replay(expected);
  EXPECT_EQ(collect(*capped, 2).size(), 2u);
}

TEST(MakeStream, PullsExactlyWhatGenerateUntilMaterializes) {
  const WorkloadConfig config = small_workload();
  const SourceSpec spec;
  const auto expected =
      make_source(spec, config, 42, 400.0)->generate_until(400.0);
  ASSERT_FALSE(expected.empty());

  auto stream = make_stream(spec, config, 42, 400.0);
  std::vector<Job> pulled;
  Job job;
  while (stream->next(job)) pulled.push_back(job);
  expect_same_jobs(pulled, expected);
  EXPECT_EQ(stream->produced(), expected.size());
}

TEST(MakeStream, HonorsMaxJobs) {
  const WorkloadConfig config = small_workload();
  auto stream = make_stream(SourceSpec{}, config, 42, 400.0, 5);
  EXPECT_EQ(collect(*stream).size(), 5u);
}

TEST(TraceStatsAccumulator, BitwiseIdenticalToSummarize) {
  const WorkloadConfig config = small_workload();
  const auto jobs =
      make_source(SourceSpec{}, config, 42, 600.0)->generate_until(600.0);
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

  PulledArrivals pulled = cached_stream(key, SourceSpec{}, config, 42, 400.0);
  EXPECT_FALSE(pulled.from_cache);
  ASSERT_NE(pulled.stream, nullptr);
  const std::vector<Job> live = collect(*pulled.stream);
  ASSERT_FALSE(live.empty());

  // Nothing was stored: the one-shot run kept per-job memory O(1).
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.store_skips(), skips_before + 1);

  // The live stream is still the canonical stream, job for job.
  const auto expected =
      make_source(SourceSpec{}, config, 42, 400.0)->generate_until(400.0);
  expect_same_jobs(live, expected);
  cache.clear();
}

TEST(CachedStream, ReusableMissStoresAndHitReplays) {
  ArrivalCache& cache = ArrivalCache::instance();
  cache.clear();
  const WorkloadConfig config = small_workload();
  const std::array<std::uint64_t, 2> key = {0xcafeULL, 0xbeefULL};

  // The reusable path (cached_arrivals) materializes and stores.
  const ArrivalStream first =
      cached_arrivals(key, SourceSpec{}, config, 42, 400.0);
  EXPECT_FALSE(first.from_cache);
  const std::vector<Job> generated = *first.jobs;
  EXPECT_NE(cache.lookup(key), nullptr);

  // A later pull replays the memoized vector.
  PulledArrivals second = cached_stream(key, SourceSpec{}, config, 42, 400.0);
  EXPECT_TRUE(second.from_cache);
  expect_same_jobs(collect(*second.stream), generated);
  cache.clear();
}

}  // namespace
}  // namespace scal::workload
