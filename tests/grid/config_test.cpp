#include "grid/config.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace scal::grid {
namespace {

TEST(RmsKind, RoundTripsThroughStrings) {
  for (const RmsKind kind : kAllRmsKinds) {
    EXPECT_EQ(rms_from_string(to_string(kind)), kind);
  }
}

TEST(RmsKind, RejectsUnknownName) {
  EXPECT_THROW(rms_from_string("NOPE"), std::invalid_argument);
}

TEST(GridConfig, DefaultIsValid) {
  GridConfig config;
  config.topology.nodes = 100;
  EXPECT_NO_THROW(config.validate());
}

TEST(GridConfig, ClusterCountFloorsWithMinimumOne) {
  GridConfig config;
  config.topology.nodes = 100;
  config.cluster_size = 20;
  EXPECT_EQ(config.cluster_count(), 5u);
  config.topology.nodes = 119;
  EXPECT_EQ(config.cluster_count(), 5u);
  config.topology.nodes = 10;
  EXPECT_EQ(config.cluster_count(), 1u);
}

TEST(GridConfig, ValidationCatchesNonsense) {
  GridConfig good;
  good.topology.nodes = 100;

  auto expect_invalid = [](GridConfig c) {
    EXPECT_THROW(c.validate(), std::invalid_argument);
  };

  GridConfig c = good;
  c.topology.nodes = 2;
  expect_invalid(c);

  c = good;
  c.cluster_size = 2;
  expect_invalid(c);

  c = good;
  c.estimators_per_cluster = 0;
  expect_invalid(c);

  c = good;
  c.estimators_per_cluster = c.cluster_size;  // no room for resources
  expect_invalid(c);

  c = good;
  c.service_rate = 0.0;
  expect_invalid(c);

  c = good;
  c.horizon = -1.0;
  expect_invalid(c);

  c = good;
  c.tuning.update_interval = 0.0;
  expect_invalid(c);

  // Intervals that would stall the clock, for both periodic timers.
  for (const double stalls :
       {std::numeric_limits<double>::infinity(), 1e-300, 1e-9}) {
    c = good;
    c.tuning.update_interval = stalls;
    expect_invalid(c);
    c = good;
    c.tuning.volunteer_interval = stalls;
    expect_invalid(c);
  }

  c = good;
  c.tuning.neighborhood_size = 0;
  expect_invalid(c);

  c = good;
  c.protocol.t_l = 1.5;
  expect_invalid(c);

  c = good;
  c.protocol.delta = 0.0;
  expect_invalid(c);
}

TEST(GridConfig, RejectsNonFiniteLinkDelayScale) {
  // tuning.link_delay_scale = inf would schedule every message at +inf
  // and report a run with no completed work.
  GridConfig c;
  c.topology.nodes = 100;
  c.tuning.link_delay_scale = 1e300;
  EXPECT_NO_THROW(c.validate());
  for (const double scale : {std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
    c.tuning.link_delay_scale = scale;
    EXPECT_THROW(c.validate(), std::invalid_argument) << scale;
  }
}

TEST(GridConfig, AcceptsShortAndHugeFiniteIntervals) {
  GridConfig c;
  c.horizon = 100.0;
  for (const double interval : {1e-4, 1e300}) {
    c.tuning.update_interval = interval;
    c.tuning.volunteer_interval = interval;
    EXPECT_NO_THROW(c.validate()) << interval;
  }
}

TEST(GridConfig, IntervalErrorNamesFieldAndBound) {
  GridConfig c;
  c.horizon = 100.0;
  c.tuning.volunteer_interval = 1e-9;
  try {
    c.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tuning.volunteer_interval"), std::string::npos);
    EXPECT_NE(what.find("2^24"), std::string::npos);
  }
}

TEST(GridConfig, AllSevenKindsEnumerated) {
  EXPECT_EQ(std::size(kAllRmsKinds), 7u);
}

}  // namespace
}  // namespace scal::grid
