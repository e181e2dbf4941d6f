// FaultPlan: spec-string round trips, validation, and the inertness of
// the default plan (the zero-fault bit-identity contract starts here).

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "fault/plan.hpp"

namespace scal::fault {
namespace {

TEST(FaultPlan, DefaultIsInert) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.any());
  EXPECT_FALSE(plan.churn.enabled());
  EXPECT_FALSE(plan.messages.enabled());
  EXPECT_FALSE(plan.estimator_blackout.enabled());
  EXPECT_FALSE(plan.scheduler_blackout.enabled());
  EXPECT_EQ(plan.to_spec(), "");
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlan, ParseEmptyIsInert) {
  const FaultPlan plan = FaultPlan::parse("");
  EXPECT_FALSE(plan.any());
}

TEST(FaultPlan, ParseChurn) {
  const FaultPlan plan = FaultPlan::parse("churn:mtbf=400,mttr=40");
  EXPECT_TRUE(plan.any());
  EXPECT_DOUBLE_EQ(plan.churn.mtbf, 400.0);
  EXPECT_DOUBLE_EQ(plan.churn.mttr, 40.0);
  EXPECT_FALSE(plan.messages.enabled());
}

TEST(FaultPlan, ParseAllClasses) {
  const FaultPlan plan = FaultPlan::parse(
      "churn:mtbf=800,mttr=20;net:drop=0.05,dup=0.01,delayp=0.1,delaym=3;"
      "est-blackout:period=200,length=25;sched-blackout:period=500,length=50;"
      "robust:stale=6,retries=3,backoff=2.5,requeue=4");
  EXPECT_TRUE(plan.churn.enabled());
  EXPECT_DOUBLE_EQ(plan.messages.drop, 0.05);
  EXPECT_DOUBLE_EQ(plan.messages.duplicate, 0.01);
  EXPECT_DOUBLE_EQ(plan.messages.delay_probability, 0.1);
  EXPECT_DOUBLE_EQ(plan.messages.delay_mean, 3.0);
  EXPECT_DOUBLE_EQ(plan.estimator_blackout.period, 200.0);
  EXPECT_DOUBLE_EQ(plan.estimator_blackout.length, 25.0);
  EXPECT_DOUBLE_EQ(plan.scheduler_blackout.period, 500.0);
  EXPECT_DOUBLE_EQ(plan.robustness.staleness_factor, 6.0);
  EXPECT_EQ(plan.robustness.retry_budget, 3u);
  EXPECT_DOUBLE_EQ(plan.robustness.retry_backoff_base, 2.5);
  EXPECT_EQ(plan.robustness.requeue_budget, 4u);
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlan, SpecRoundTrips) {
  const char* specs[] = {
      "churn:mtbf=400,mttr=40",
      "net:drop=0.02",
      "churn:mtbf=250,mttr=10;est-blackout:period=100,length=10",
      "agg-blackout:period=120,length=15",
      "sched-blackout:period=300,length=30;agg-blackout:period=90,length=9",
  };
  for (const char* spec : specs) {
    const FaultPlan plan = FaultPlan::parse(spec);
    const FaultPlan again = FaultPlan::parse(plan.to_spec());
    EXPECT_EQ(plan.to_spec(), again.to_spec()) << spec;
    EXPECT_DOUBLE_EQ(plan.churn.mtbf, again.churn.mtbf) << spec;
    EXPECT_DOUBLE_EQ(plan.messages.drop, again.messages.drop) << spec;
    EXPECT_DOUBLE_EQ(plan.estimator_blackout.period,
                     again.estimator_blackout.period)
        << spec;
  }
}

TEST(FaultPlan, ParseAggregatorBlackout) {
  const FaultPlan plan = FaultPlan::parse("agg-blackout:period=160,length=12");
  EXPECT_TRUE(plan.any());
  EXPECT_TRUE(plan.aggregator_blackout.enabled());
  EXPECT_DOUBLE_EQ(plan.aggregator_blackout.period, 160.0);
  EXPECT_DOUBLE_EQ(plan.aggregator_blackout.length, 12.0);
  EXPECT_FALSE(plan.estimator_blackout.enabled());
  EXPECT_FALSE(plan.scheduler_blackout.enabled());
  EXPECT_NO_THROW(plan.validate());
  // Emitted after sched-blackout, before robust.
  const std::string spec = plan.to_spec();
  EXPECT_NE(spec.find("agg-blackout:period=160,length=12"), std::string::npos);
}

TEST(FaultPlan, AggregatorBlackoutValidation) {
  FaultPlan plan;
  plan.aggregator_blackout.period = 60.0;
  plan.aggregator_blackout.length = 60.0;  // must leave up-time
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.aggregator_blackout.length = 10.0;
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlan, SpecIncludesRobustnessWhenActive) {
  const FaultPlan plan = FaultPlan::parse("churn:mtbf=400,mttr=40");
  // A manifest alone must reproduce the run, robustness knobs included.
  EXPECT_NE(plan.to_spec().find("robust:"), std::string::npos);
}

TEST(FaultPlan, ParseRejectsMalformed) {
  EXPECT_THROW(FaultPlan::parse("bogus:mtbf=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("churn:mtbf"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("churn:nope=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("churn:mtbf=abc"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse(";"), std::invalid_argument);
  // Counts are range-checked before their integer cast, and no number
  // may be non-finite: a NaN must not parse into an empty plan.
  for (const std::string v : {"1e20", "-1", "nan", "inf"}) {
    EXPECT_THROW(FaultPlan::parse("robust:retries=" + v),
                 std::invalid_argument)
        << v;
    EXPECT_THROW(FaultPlan::parse("robust:requeue=" + v),
                 std::invalid_argument)
        << v;
  }
  for (const char* spec :
       {"net:drop=nan", "net:dup=nan", "net:delayp=nan,delaym=1",
        "churn:mtbf=nan,mttr=1", "churn:mtbf=100,mttr=nan",
        "est-blackout:period=nan,length=1",
        "sched-blackout:period=100,length=nan",
        "agg-blackout:period=nan,length=nan"}) {
    EXPECT_THROW(FaultPlan::parse(spec), std::invalid_argument) << spec;
  }
}

TEST(FaultPlan, ValidateRejectsOutOfRange) {
  FaultPlan plan;
  plan.churn.mtbf = 100.0;  // enabled, mttr missing
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.churn.mttr = 10.0;
  EXPECT_NO_THROW(plan.validate());

  plan = FaultPlan{};
  plan.messages.drop = 1.0;  // probabilities live in [0, 1)
  EXPECT_THROW(plan.validate(), std::invalid_argument);

  plan = FaultPlan{};
  plan.messages.delay_probability = 0.5;  // needs a positive mean
  EXPECT_THROW(plan.validate(), std::invalid_argument);

  plan = FaultPlan{};
  plan.estimator_blackout.period = 50.0;
  plan.estimator_blackout.length = 50.0;  // must leave up-time
  EXPECT_THROW(plan.validate(), std::invalid_argument);

  plan = FaultPlan{};
  plan.churn = ChurnSpec{100.0, 10.0};
  plan.robustness.staleness_factor = 1.0;  // would evict fresh entries
  EXPECT_THROW(plan.validate(), std::invalid_argument);

  // NaN fails every range check instead of reading as "inactive".
  const double nan = std::numeric_limits<double>::quiet_NaN();
  plan = FaultPlan{};
  plan.messages.drop = nan;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan = FaultPlan{};
  plan.churn.mtbf = nan;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan = FaultPlan{};
  plan.aggregator_blackout.period = nan;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace scal::fault
