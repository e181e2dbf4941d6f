#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace scal::util {
namespace {

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(Accumulator, SingleValue) {
  Accumulator a;
  a.add(5.0);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 5.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

TEST(Accumulator, KnownMoments) {
  Accumulator a;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, n-1 = 7.
  EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(a.sum(), 40.0);
}

TEST(Accumulator, MergeEqualsCombined) {
  Accumulator a, b, combined;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 ? a : b).add(x);
    combined.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), combined.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a, empty;
  a.add(1.0);
  a.add(3.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

TEST(Samples, PercentileInterpolates) {
  Samples s;
  for (const double x : {10.0, 20.0, 30.0, 40.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 25.0);
}

TEST(Samples, EmptyReturnsZero) {
  Samples s;
  EXPECT_DOUBLE_EQ(s.percentile(95), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Samples, AddAfterPercentileStillCorrect) {
  Samples s;
  s.add(3.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
}

TEST(LineFit, ExactLine) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{3, 5, 7, 9, 11};  // y = 1 + 2x
  const LineFit fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LineFit, FlatLine) {
  const std::vector<double> x{1, 2, 3};
  const std::vector<double> y{4, 4, 4};
  const LineFit fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, 0.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 4.0, 1e-12);
}

TEST(LineFit, RejectsTooFewPoints) {
  EXPECT_THROW(fit_line({1.0}, {2.0}), std::invalid_argument);
  EXPECT_THROW(fit_line({1.0, 2.0}, {2.0}), std::invalid_argument);
}

TEST(SegmentSlopes, Finite) {
  const auto s = segment_slopes({1, 2, 4}, {10, 14, 14});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0], 4.0);
  EXPECT_DOUBLE_EQ(s[1], 0.0);
}

TEST(SegmentSlopes, RejectsMismatch) {
  EXPECT_THROW(segment_slopes({1.0}, {1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace scal::util
