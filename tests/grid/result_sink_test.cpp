// ResultSink — the storage half of the streaming-tier API split.  The
// load-bearing contracts: the streaming sink's mean is bitwise identical
// to the full sink's (same 0.0-seeded fold in completion order), its p95
// is a bounded-error histogram estimate, and every sink's JobLog honors
// the capacity bound.

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
  EXPECT_EQ(make_result_sink(ResultMode::kFull)->mode(), ResultMode::kFull);
  EXPECT_EQ(make_result_sink(ResultMode::kStreaming)->mode(),
            ResultMode::kStreaming);
  EXPECT_NE(make_result_sink(ResultMode::kFull)->samples(), nullptr);
  EXPECT_EQ(make_result_sink(ResultMode::kStreaming)->samples(), nullptr);
}

TEST(FullResultSink, IsExactlyTheSampleStore) {
  FullResultSink sink;
  util::Samples expected;
  for (const double v : noisy_responses(500, 7)) {
    sink.record_response(v);
    expected.add(v);
  }
  EXPECT_EQ(sink.response_count(), 500u);
  EXPECT_EQ(sink.response_mean(), expected.mean());
  EXPECT_EQ(sink.response_p95(), expected.percentile(95.0));
  ASSERT_NE(sink.samples(), nullptr);
  EXPECT_EQ(sink.samples()->values(), expected.values());
}

TEST(StreamingResultSink, MeanBitwiseIdenticalToSamples) {
  StreamingResultSink streaming;
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
  StreamingResultSink streaming;
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
  StreamingResultSink sink;
  EXPECT_EQ(sink.response_count(), 0u);
  EXPECT_EQ(sink.response_mean(), 0.0);
  EXPECT_EQ(sink.response_p95(), 0.0);
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
  MetricsCollector metrics;
  StreamingResultSink sink;
  sink.log().set_enabled(true);
  metrics.attach_sink(&sink);
  metrics.record_job_event(7, JobEvent::kDispatch, 1.5, 3);
  ASSERT_EQ(sink.log().size(), 1u);
  EXPECT_EQ(sink.log().records()[0].job, 7u);
  EXPECT_EQ(sink.log().records()[0].place, 3u);

  // Detaching restores the embedded full sink, whose own log takes the
  // next events.
  metrics.attach_sink(nullptr);
  EXPECT_EQ(metrics.sink().mode(), ResultMode::kFull);
  metrics.sink().log().set_enabled(true);
  metrics.record_job_event(8, JobEvent::kStart, 2.0, 1);
  ASSERT_EQ(metrics.sink().log().size(), 1u);
  EXPECT_EQ(metrics.sink().log().records()[0].job, 8u);
  EXPECT_EQ(sink.log().size(), 1u);
}

TEST(MetricsCollector, ResponseTimesThrowOnStreamingSink) {
  MetricsCollector metrics;
  StreamingResultSink sink;
  metrics.attach_sink(&sink);
  EXPECT_THROW(metrics.response_times(), std::logic_error);
  // The mode-agnostic accessors keep working.
  sink.record_response(4.0);
  EXPECT_EQ(metrics.response_count(), 1u);
  EXPECT_EQ(metrics.response_mean(), 4.0);
}

}  // namespace
}  // namespace scal::grid
