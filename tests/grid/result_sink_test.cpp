// ResultSink — a run's per-job result storage.  The load-bearing
// contracts: the mean is bitwise identical in both modes and to
// util::Samples::mean (the same 0.0-seeded fold in completion order),
// the full-mode p95 is the exact sample percentile, the streaming p95 is
// a bounded-error histogram estimate, and the JobLog honors the capacity
// bound.

#include "grid/result_sink.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "grid/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace scal::grid {
namespace {

std::vector<double> noisy_responses(std::size_t n, std::uint64_t seed) {
  util::RandomStream rng(seed, "responses");
  std::vector<double> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    values.push_back(rng.exponential(3.0) + 0.25);
  }
  return values;
}

TEST(ResultModeTest, RoundTripsThroughStrings) {
  EXPECT_EQ(to_string(ResultMode::kFull), "full");
  EXPECT_EQ(to_string(ResultMode::kStreaming), "streaming");
  EXPECT_EQ(result_mode_from_string("full"), ResultMode::kFull);
  EXPECT_EQ(result_mode_from_string("streaming"), ResultMode::kStreaming);
  EXPECT_THROW(result_mode_from_string("bogus"), std::invalid_argument);
}

TEST(MakeResultSink, BuildsTheRequestedMode) {
  EXPECT_EQ(ResultSink().mode(), ResultMode::kFull);
  EXPECT_EQ(ResultSink(ResultMode::kFull).mode(), ResultMode::kFull);
  EXPECT_EQ(ResultSink(ResultMode::kStreaming).mode(),
            ResultMode::kStreaming);
  EXPECT_EQ(MetricsCollector(ResultMode::kStreaming).sink().mode(),
            ResultMode::kStreaming);
}

TEST(FullResultSink, IsExactlyTheSampleStore) {
  ResultSink sink(ResultMode::kFull);
  util::Samples expected;
  for (const double v : noisy_responses(500, 7)) {
    sink.record_response(v);
    expected.add(v);
  }
  EXPECT_EQ(sink.response_count(), 500u);
  const double completion_order_mean = expected.mean();
  // p95 first: the query sorts the sample store, and the mean must not
  // depend on that order.
  EXPECT_EQ(sink.response_p95(), expected.percentile(95.0));
  EXPECT_EQ(sink.response_mean(), completion_order_mean);
}

TEST(StreamingResultSink, MeanBitwiseIdenticalToSamples) {
  ResultSink streaming(ResultMode::kStreaming);
  util::Samples exact;
  for (const double v : noisy_responses(2000, 11)) {
    streaming.record_response(v);
    exact.add(v);
  }
  // == on purpose: the streaming fold performs the identical operation
  // sequence, so the doubles match to the last bit — the property that
  // keeps default goldens byte-identical across result modes.
  EXPECT_EQ(streaming.response_mean(), exact.mean());
  EXPECT_EQ(streaming.response_count(), 2000u);
}

TEST(StreamingResultSink, P95IsABoundedErrorEstimate) {
  ResultSink streaming(ResultMode::kStreaming);
  util::Samples exact;
  for (const double v : noisy_responses(5000, 13)) {
    streaming.record_response(v);
    exact.add(v);
  }
  const double approx = streaming.response_p95();
  const double truth = exact.percentile(95.0);
  // Relative quantile error is bounded by one sub-bucket width (12.5%).
  EXPECT_NEAR(approx, truth, 0.13 * truth);
  EXPECT_GE(approx, exact.min());
  EXPECT_LE(approx, exact.max());
}

TEST(StreamingResultSink, EmptyReadsAsZero) {
  for (const ResultMode mode : {ResultMode::kFull, ResultMode::kStreaming}) {
    const ResultSink sink(mode);
    EXPECT_EQ(sink.response_count(), 0u);
    EXPECT_EQ(sink.response_mean(), 0.0);
    EXPECT_EQ(sink.response_p95(), 0.0);
  }
}

TEST(JobLogCapacity, KeepsFirstNThenCounts) {
  JobLog log;
  log.set_enabled(true);
  log.set_capacity(3);
  for (workload::JobId id = 0; id < 10; ++id) {
    log.record(id, JobEvent::kArrival, static_cast<double>(id));
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped(), 7u);
  // The survivors are the first three, untouched.
  EXPECT_EQ(log.records()[2].job, 2u);
}

TEST(MetricsCollector, RecordJobEventRoutesToTheAttachedSink) {
  MetricsCollector metrics(ResultMode::kStreaming);
  metrics.sink().log().set_enabled(true);
  metrics.record_job_event(7, JobEvent::kDispatch, 1.5, 3);
  ASSERT_EQ(metrics.sink().log().size(), 1u);
  EXPECT_EQ(metrics.sink().log().records()[0].job, 7u);
  EXPECT_EQ(metrics.sink().log().records()[0].place, 3u);

  // Completions fold into the same sink.
  metrics.record_completion(workload::Job{}, 4.0, 1.0, 0.0);
  EXPECT_EQ(metrics.response_count(), 1u);
  EXPECT_EQ(metrics.response_mean(), 4.0);
  EXPECT_EQ(metrics.sink().response_count(), 1u);
}

}  // namespace
}  // namespace scal::grid
