#include "obs/histogram.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace scal::obs {
namespace {

TEST(Histogram, EmptyReadsAsZeros) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50.0), 0.0);
  EXPECT_EQ(h.percentile(99.0), 0.0);
}

TEST(Histogram, EmptySerializationIsAllZeros) {
  Histogram h;
  EXPECT_EQ(h.to_json(),
            "{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"mean\":0,"
            "\"p50\":0,\"p95\":0,\"p99\":0}");
}

TEST(Histogram, ExactMomentsSurviveBucketing) {
  Histogram h;
  h.record(1.0);
  h.record(2.0);
  h.record(4.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 7.0);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 4.0);
  EXPECT_DOUBLE_EQ(h.mean(), 7.0 / 3.0);
}

TEST(Histogram, SingleValueQuantilesCollapseToIt) {
  Histogram h;
  h.record(3.25);
  EXPECT_EQ(h.percentile(0.0), 3.25);
  EXPECT_EQ(h.percentile(50.0), 3.25);
  EXPECT_EQ(h.percentile(100.0), 3.25);
}

TEST(Histogram, QuantileErrorIsBoundedBySubBucketWidth) {
  // Log-linear buckets with 8 sub-buckets per octave: relative quantile
  // error is at most 1/8 = 12.5%.
  Histogram h;
  util::RandomStream rng(99, "hist");
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.exponential(10.0);
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double p : {50.0, 95.0, 99.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    const double exact = values[rank - 1];
    const double est = h.percentile(p);
    EXPECT_NEAR(est, exact, 0.125 * exact) << "p" << p;
  }
}

TEST(Histogram, MaxPercentileIsExact) {
  Histogram h;
  for (double v = 0.1; v < 100.0; v *= 1.7) h.record(v);
  EXPECT_EQ(h.percentile(100.0), h.max());
}

TEST(Histogram, NonPositiveAndNonFiniteValuesLandInEdgeBuckets) {
  Histogram h;
  h.record(0.0);
  h.record(-5.0);
  h.record(std::numeric_limits<double>::infinity());
  h.record(1e300);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.min(), -5.0);
  EXPECT_EQ(h.max(), std::numeric_limits<double>::infinity());
}

TEST(Histogram, MergeEqualsSerialRecording) {
  // Merging per-task histograms in task order is serial accumulation:
  // the integer state (bucket counts, count) and the exact extremes are
  // bit-identical, so every quantile readout matches; only the sum may
  // differ by association order of the floating-point additions.
  util::RandomStream rng(7, "merge");
  Histogram serial, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.exponential(3.0);
    serial.record(v);
    (i < 500 ? a : b).record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), serial.count());
  EXPECT_EQ(a.min(), serial.min());
  EXPECT_EQ(a.max(), serial.max());
  EXPECT_DOUBLE_EQ(a.sum(), serial.sum());
  for (const double p : {10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(a.percentile(p), serial.percentile(p)) << "p" << p;
  }
}

TEST(Histogram, MergeWithEmptySidesIsIdentity) {
  Histogram h, empty;
  h.record(2.5);
  const std::string before = h.to_json();
  h.merge(empty);
  EXPECT_EQ(h.to_json(), before);
  empty.merge(h);
  EXPECT_EQ(empty.to_json(), before);
}

TEST(HistogramRegistry, FindOrCreateKeepsStableReferences) {
  HistogramRegistry reg;
  Histogram& a = reg.histogram("a");
  a.record(1.0);
  // Growing the registry must not invalidate earlier references.
  for (int i = 0; i < 100; ++i) {
    std::string name = "h";
    name += std::to_string(i);
    reg.histogram(name);
  }
  Histogram& a2 = reg.histogram("a");
  EXPECT_EQ(&a, &a2);
  EXPECT_EQ(a2.count(), 1u);
  EXPECT_EQ(reg.size(), 101u);
}

TEST(HistogramRegistry, AllEmptyTracksRecordedValues) {
  HistogramRegistry reg;
  reg.histogram("quiet");
  EXPECT_TRUE(reg.all_empty());
  reg.histogram("loud").record(1.0);
  EXPECT_FALSE(reg.all_empty());
}

TEST(HistogramRegistry, JsonPreservesRegistrationOrder) {
  HistogramRegistry reg;
  reg.histogram("zeta").record(1.0);
  reg.histogram("alpha").record(2.0);
  const std::string json = reg.to_json();
  EXPECT_LT(json.find("zeta"), json.find("alpha"));
}

TEST(HistogramRegistry, MergeFoldsByName) {
  HistogramRegistry a, b;
  a.histogram("x").record(1.0);
  b.histogram("x").record(2.0);
  b.histogram("y").record(3.0);
  a.merge(b);
  EXPECT_EQ(a.histogram("x").count(), 2u);
  EXPECT_EQ(a.histogram("y").count(), 1u);
  EXPECT_EQ(a.size(), 2u);
}

}  // namespace
}  // namespace scal::obs
