#include "workload/swf.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "workload/source.hpp"

namespace scal::workload {
namespace {

SwfMapping small_mapping() {
  SwfMapping mapping;
  mapping.time_scale = 1.0;
  mapping.t_cpu = 700.0;
  mapping.clusters = 4;
  mapping.seed = 42;
  return mapping;
}

// One SWF record: the 4 mandatory fields plus the optional tail up to
// the user id (field 11).  -1 marks missing values, as in the archive.
std::string row(double submit, double run, double req = -1.0,
                double uid = -1.0) {
  std::ostringstream out;
  out << "1 " << submit << " 0 " << run << " 1 -1 -1 1 " << req
      << " -1 1 " << uid << "\n";
  return out.str();
}

TEST(Swf, SkipsCommentsAndBlankLines) {
  std::istringstream in(
      "; Computer: test machine\n"
      "# alt comment style\n"
      "\n"
      "   \t \n" +
      row(0.0, 100.0) + row(10.0, 50.0));
  const auto jobs = load_swf(in, small_mapping());
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_DOUBLE_EQ(jobs[0].arrival, 0.0);
  EXPECT_DOUBLE_EQ(jobs[1].arrival, 10.0);
}

TEST(Swf, ShortRecordThrows) {
  std::istringstream in("1 0 0\n");  // 3 fields; need >= 4
  EXPECT_THROW(load_swf(in, small_mapping()), std::runtime_error);
}

TEST(Swf, NonNumericFieldThrows) {
  std::istringstream in("1 0 0 abc\n");
  EXPECT_THROW(load_swf(in, small_mapping()), std::runtime_error);
}

TEST(Swf, ExtraFieldsBeyondEighteenIgnored) {
  std::istringstream in(
      "1 0 0 100 1 -1 -1 1 -1 -1 1 3 1 -1 0 -1 -1 -1 99 98 97\n");
  const auto jobs = load_swf(in, small_mapping());
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(jobs[0].exec_time, 100.0);
}

TEST(Swf, MissingSubmitTimeDropsRecord) {
  std::istringstream in(row(-1.0, 100.0) + row(5.0, 50.0));
  const auto jobs = load_swf(in, small_mapping());
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(jobs[0].exec_time, 50.0);
}

TEST(Swf, MissingRunTimeFallsBackToRequestedTime) {
  std::istringstream in(row(0.0, -1.0, 300.0));
  const auto jobs = load_swf(in, small_mapping());
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(jobs[0].exec_time, 300.0);
  EXPECT_DOUBLE_EQ(jobs[0].requested_time, 300.0);
}

TEST(Swf, ZeroRuntimeJobsDropped) {
  // Cancelled-before-start records: run 0 / -1 with no requested time.
  std::istringstream in(row(0.0, 0.0) + row(1.0, -1.0) + row(2.0, 10.0));
  const auto jobs = load_swf(in, small_mapping());
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(jobs[0].exec_time, 10.0);
}

TEST(Swf, RequestedTimeIsAtLeastRunTime) {
  // Logs where the job overran its request: requested_time must still
  // upper-bound exec_time.
  std::istringstream in(row(0.0, 500.0, 100.0));
  const auto jobs = load_swf(in, small_mapping());
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(jobs[0].exec_time, 500.0);
  EXPECT_DOUBLE_EQ(jobs[0].requested_time, 500.0);
}

TEST(Swf, OutOfOrderSubmitTimesSortedAndRebased) {
  std::istringstream in(row(100.0, 10.0) + row(40.0, 20.0) +
                        row(70.0, 30.0));
  const auto jobs = load_swf(in, small_mapping());
  ASSERT_EQ(jobs.size(), 3u);
  // Sorted by submit, rebased so the first arrival is 0, sequential ids.
  EXPECT_DOUBLE_EQ(jobs[0].arrival, 0.0);
  EXPECT_DOUBLE_EQ(jobs[1].arrival, 30.0);
  EXPECT_DOUBLE_EQ(jobs[2].arrival, 60.0);
  EXPECT_DOUBLE_EQ(jobs[0].exec_time, 20.0);
  EXPECT_DOUBLE_EQ(jobs[1].exec_time, 30.0);
  EXPECT_DOUBLE_EQ(jobs[2].exec_time, 10.0);
  for (std::size_t i = 0; i < jobs.size(); ++i) EXPECT_EQ(jobs[i].id, i);
}

TEST(Swf, TimeScaleAppliesToArrivalAndRunTimes) {
  SwfMapping mapping = small_mapping();
  mapping.time_scale = 0.1;
  std::istringstream in(row(100.0, 50.0, 80.0) + row(300.0, 20.0));
  const auto jobs = load_swf(in, mapping);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_DOUBLE_EQ(jobs[0].arrival, 0.0);
  EXPECT_DOUBLE_EQ(jobs[1].arrival, 20.0);
  EXPECT_DOUBLE_EQ(jobs[0].exec_time, 5.0);
  EXPECT_DOUBLE_EQ(jobs[0].requested_time, 8.0);
}

TEST(Swf, JobClassSplitsOnTcpu) {
  std::istringstream in(row(0.0, 700.0) + row(1.0, 701.0));
  const auto jobs = load_swf(in, small_mapping());
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].job_class, JobClass::kLocal);
  EXPECT_EQ(jobs[1].job_class, JobClass::kRemote);
}

TEST(Swf, OriginFromUserIdModuloClusters) {
  std::istringstream in(row(0.0, 10.0, -1.0, 7.0) +
                        row(1.0, 10.0, -1.0, 4.0));
  const auto jobs = load_swf(in, small_mapping());  // 4 clusters
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].origin_cluster, 3u);
  EXPECT_EQ(jobs[1].origin_cluster, 0u);
}

TEST(Swf, MissingUserIdRoundRobinsOrigin) {
  std::istringstream in(row(0.0, 10.0) + row(1.0, 10.0) + row(2.0, 10.0) +
                        row(3.0, 10.0) + row(4.0, 10.0));
  const auto jobs = load_swf(in, small_mapping());  // 4 clusters
  ASSERT_EQ(jobs.size(), 5u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].origin_cluster, i % 4);
  }
}

TEST(Swf, BenefitFactorsInRangeAndDeterministic) {
  std::string text;
  for (int i = 0; i < 50; ++i) text += row(i, 10.0);
  std::istringstream in1(text), in2(text);
  const auto a = load_swf(in1, small_mapping());
  const auto b = load_swf(in2, small_mapping());
  ASSERT_EQ(a.size(), 50u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a[i].benefit_factor, 2.0);
    EXPECT_LT(a[i].benefit_factor, 5.0);
    EXPECT_DOUBLE_EQ(a[i].benefit_factor, b[i].benefit_factor);
    EXPECT_DOUBLE_EQ(a[i].benefit_deadline,
                     a[i].exec_time * a[i].benefit_factor);
  }
}

TEST(Swf, PaperModelFieldsFixed) {
  std::istringstream in(row(0.0, 10.0));
  const auto jobs = load_swf(in, small_mapping());
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].partition_size, 1u);   // paper Section 3.1
  EXPECT_FALSE(jobs[0].cancellable);       // paper Section 3.1
}

TEST(Swf, RejectsBadMapping) {
  std::istringstream in(row(0.0, 10.0));
  SwfMapping mapping = small_mapping();
  mapping.time_scale = 0.0;
  EXPECT_THROW(load_swf(in, mapping), std::invalid_argument);
  mapping = small_mapping();
  mapping.clusters = 0;
  EXPECT_THROW(load_swf(in, mapping), std::invalid_argument);
}

TEST(Swf, NonFiniteFieldsThrowNamingLineAndCell) {
  // A NaN submit time, an infinite run time, an infinite user id.
  const std::pair<std::string, std::string> cases[] = {
      {"1 nan 0 100\n", "field 2 'nan'"},
      {"1 0 0 inf\n", "field 4 'inf'"},
      {"1 0 0 100 1 -1 -1 1 -1 -1 1 -inf\n", "field 12 '-inf'"}};
  for (const auto& [record, cell] : cases) {
    std::istringstream in("; header\n" + record);
    try {
      load_swf(in, small_mapping());
      FAIL() << record;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 2"), std::string::npos) << what;
      EXPECT_NE(what.find(cell), std::string::npos) << what;
    }
  }
}

TEST(Swf, UserIdOutOfRangeThrows) {
  std::istringstream in(row(0.0, 10.0, -1.0, 1e20));
  EXPECT_THROW(load_swf(in, small_mapping()), std::runtime_error);
  std::istringstream fits(row(0.0, 10.0, -1.0, 1e19));
  EXPECT_EQ(load_swf(fits, small_mapping()).size(), 1u);
}

TEST(Swf, TimeScaleMustBeFinite) {
  for (const double scale : {std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
    std::istringstream in(row(0.0, 10.0));
    SwfMapping mapping = small_mapping();
    mapping.time_scale = scale;
    EXPECT_THROW(load_swf(in, mapping), std::invalid_argument) << scale;
  }
}

TEST(Swf, MissingFileThrows) {
  EXPECT_THROW(load_swf_file("/nonexistent/nope.swf", small_mapping()),
               std::runtime_error);
}

/// Writes `text` to a temporary SWF file and returns its path.
std::string swf_file(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream(path) << text;
  return path;
}

/// The workload config whose SWF mapping is small_mapping().
WorkloadConfig small_workload() {
  WorkloadConfig config;
  config.t_cpu = small_mapping().t_cpu;
  config.clusters = small_mapping().clusters;
  return config;
}

TEST(SwfSource, StreamsJobsInOrderThenExhausts) {
  const std::string path =
      swf_file("scal_swf_source.swf", row(0.0, 10.0) + row(5.0, 20.0));
  auto source = make_source(SourceSpec::parse("swf:" + path),
                            small_workload(), 42, 1e9);
  const std::vector<Job> expected = load_swf_file(path, small_mapping());
  Job j;
  ASSERT_TRUE(source->next(j));
  EXPECT_DOUBLE_EQ(j.arrival, 0.0);
  EXPECT_EQ(j.benefit_factor, expected[0].benefit_factor);
  ASSERT_TRUE(source->next(j));
  EXPECT_DOUBLE_EQ(j.arrival, 5.0);
  EXPECT_EQ(j.benefit_factor, expected[1].benefit_factor);
  EXPECT_FALSE(source->next(j));
  EXPECT_FALSE(source->next(j));
  std::remove(path.c_str());
}

TEST(SwfSource, GenerateUntilRespectsHorizon) {
  const std::string path = swf_file(
      "scal_swf_horizon.swf",
      row(0.0, 10.0) + row(5.0, 10.0) + row(50.0, 10.0));
  auto source = make_source(SourceSpec::parse("swf:" + path),
                            small_workload(), 42, 50.0);
  // Arrival 50 is at the horizon: excluded.
  EXPECT_EQ(collect(*source).size(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace scal::workload
