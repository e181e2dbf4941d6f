#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "workload/source.hpp"
#include "workload/trace.hpp"
#include "support/draw_jobs.hpp"

namespace scal::workload {
namespace {

WorkloadConfig base_config() {
  WorkloadConfig config;
  config.mean_interarrival = 5.0;
  config.clusters = 4;
  return config;
}

TEST(WorkloadGenerator, ArrivalsStrictlyIncreasing) {
  WorkloadGenerator gen(base_config(), util::RandomStream(42, "wl"));
  double prev = -1.0;
  for (int i = 0; i < 1000; ++i) {
    const Job j = gen.next();
    EXPECT_GT(j.arrival, prev);
    prev = j.arrival;
  }
}

TEST(WorkloadGenerator, IdsAreSequential) {
  WorkloadGenerator gen(base_config(), util::RandomStream(42, "wl"));
  for (JobId i = 0; i < 100; ++i) EXPECT_EQ(gen.next().id, i);
}

TEST(WorkloadGenerator, PaperConstraintsHold) {
  // Paper Section 3.1: partition size 1, no cancellation; Table 1:
  // T_CPU classification and U_b factor in [2, 5].
  const WorkloadConfig config = base_config();
  WorkloadGenerator gen(config, util::RandomStream(1, "wl"));
  for (int i = 0; i < 5000; ++i) {
    const Job j = gen.next();
    EXPECT_EQ(j.partition_size, 1u);
    EXPECT_FALSE(j.cancellable);
    EXPECT_EQ(j.job_class, j.exec_time <= config.t_cpu ? JobClass::kLocal
                                                       : JobClass::kRemote);
    EXPECT_GE(j.benefit_factor, config.benefit_lo);
    EXPECT_LE(j.benefit_factor, config.benefit_hi);
    EXPECT_NEAR(j.benefit_deadline, j.benefit_factor * j.exec_time, 1e-9);
    EXPECT_GE(j.requested_time, j.exec_time);
    EXPECT_LE(j.requested_time,
              j.exec_time * config.requested_factor_max * (1 + 1e-12));
    EXPECT_LT(j.origin_cluster, config.clusters);
  }
}

TEST(WorkloadGenerator, MeanInterarrivalMatches) {
  WorkloadGenerator gen(base_config(), util::RandomStream(2, "wl"));
  const auto jobs = test::first_jobs(gen, 20000);
  const TraceStats stats = summarize(jobs);
  EXPECT_NEAR(stats.mean_interarrival, 5.0, 0.15);
}

TEST(WorkloadGenerator, GenerateUntilRespectsHorizon) {
  // The synthetic source make_source builds stops before the horizon.
  const auto jobs =
      collect(*make_source(SourceSpec{}, base_config(), 3, 100.0));
  ASSERT_FALSE(jobs.empty());
  for (const Job& j : jobs) EXPECT_LT(j.arrival, 100.0);
}

TEST(WorkloadGenerator, SameSeedSameTrace) {
  WorkloadGenerator a(base_config(), util::RandomStream(9, "wl"));
  WorkloadGenerator b(base_config(), util::RandomStream(9, "wl"));
  for (int i = 0; i < 200; ++i) {
    const Job ja = a.next();
    const Job jb = b.next();
    EXPECT_DOUBLE_EQ(ja.arrival, jb.arrival);
    EXPECT_DOUBLE_EQ(ja.exec_time, jb.exec_time);
    EXPECT_EQ(ja.origin_cluster, jb.origin_cluster);
  }
}

TEST(WorkloadGenerator, LocalFractionMatchesLognormalCdf) {
  const WorkloadConfig config = base_config();
  WorkloadGenerator gen(config, util::RandomStream(5, "wl"));
  const auto jobs = test::first_jobs(gen, 40000);
  const TraceStats stats = summarize(jobs);
  // P(exec <= 700) for lognormal(mu=6, sigma=0.9).
  const double z = (std::log(700.0) - 6.0) / 0.9;
  const double expected = 0.5 * std::erfc(-z / std::sqrt(2.0));
  EXPECT_NEAR(static_cast<double>(stats.local_jobs) / stats.jobs, expected,
              0.02);
}

class ExecModelTest : public ::testing::TestWithParam<ExecTimeModel> {};

TEST_P(ExecModelTest, EmpiricalMeanMatchesAnalytic) {
  WorkloadConfig config = base_config();
  config.exec_model = GetParam();
  WorkloadGenerator gen(config, util::RandomStream(6, "wl"));
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += gen.next().exec_time;
  const double analytic = expected_exec_time(config);
  EXPECT_NEAR(sum / n, analytic, 0.05 * analytic);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ExecModelTest,
                         ::testing::Values(ExecTimeModel::kLognormal,
                                           ExecTimeModel::kBoundedPareto,
                                           ExecTimeModel::kUniform),
                         [](const auto& info) {
                           switch (info.param) {
                             case ExecTimeModel::kLognormal:
                               return "Lognormal";
                             case ExecTimeModel::kBoundedPareto:
                               return "BoundedPareto";
                             case ExecTimeModel::kUniform:
                               return "Uniform";
                           }
                           return "Unknown";
                         });

TEST(WorkloadGenerator, RejectsBadConfig) {
  WorkloadConfig config = base_config();
  config.mean_interarrival = 0.0;
  EXPECT_THROW(WorkloadGenerator(config, util::RandomStream(1, "wl")),
               std::invalid_argument);
  config = base_config();
  config.clusters = 0;
  EXPECT_THROW(WorkloadGenerator(config, util::RandomStream(1, "wl")),
               std::invalid_argument);
  config = base_config();
  config.benefit_hi = config.benefit_lo - 1;
  EXPECT_THROW(WorkloadGenerator(config, util::RandomStream(1, "wl")),
               std::invalid_argument);
}

}  // namespace
}  // namespace scal::workload
