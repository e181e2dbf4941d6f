#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "workload/generator.hpp"
#include "support/draw_jobs.hpp"

namespace scal::workload {
namespace {

std::vector<Job> sample_jobs(std::size_t n) {
  WorkloadConfig config;
  config.mean_interarrival = 3.0;
  config.clusters = 5;
  WorkloadGenerator gen(config, util::RandomStream(42, "trace"));
  return test::first_jobs(gen, n);
}

TEST(Trace, RoundTripPreservesEveryField) {
  const auto jobs = sample_jobs(200);
  std::stringstream buffer;
  save_trace(jobs, buffer);
  const auto loaded = load_trace(buffer);
  ASSERT_EQ(loaded.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(loaded[i].id, jobs[i].id);
    EXPECT_DOUBLE_EQ(loaded[i].arrival, jobs[i].arrival);
    EXPECT_DOUBLE_EQ(loaded[i].exec_time, jobs[i].exec_time);
    EXPECT_DOUBLE_EQ(loaded[i].requested_time, jobs[i].requested_time);
    EXPECT_EQ(loaded[i].partition_size, jobs[i].partition_size);
    EXPECT_EQ(loaded[i].cancellable, jobs[i].cancellable);
    EXPECT_EQ(loaded[i].job_class, jobs[i].job_class);
    EXPECT_DOUBLE_EQ(loaded[i].benefit_factor, jobs[i].benefit_factor);
    EXPECT_DOUBLE_EQ(loaded[i].benefit_deadline, jobs[i].benefit_deadline);
    EXPECT_EQ(loaded[i].origin_cluster, jobs[i].origin_cluster);
  }
}

TEST(Trace, FileRoundTrip) {
  const auto jobs = sample_jobs(20);
  const std::string path = ::testing::TempDir() + "/scal_trace_test.csv";
  save_trace_file(jobs, path);
  const auto loaded = load_trace_file(path);
  EXPECT_EQ(loaded.size(), jobs.size());
  std::remove(path.c_str());
}

TEST(Trace, EmptyTraceRoundTrips) {
  std::stringstream buffer;
  save_trace({}, buffer);
  EXPECT_TRUE(load_trace(buffer).empty());
}

TEST(Trace, RejectsBadHeader) {
  std::stringstream buffer("not,a,trace\n1,2,3\n");
  EXPECT_THROW(load_trace(buffer), std::runtime_error);
}

TEST(Trace, RejectsTruncatedRow) {
  std::stringstream buffer;
  save_trace(sample_jobs(1), buffer);
  std::string text = buffer.str();
  text = text.substr(0, text.rfind(',') - 2);  // chop the row's tail
  std::stringstream broken(text);
  EXPECT_THROW(load_trace(broken), std::runtime_error);
}

// The save_trace header followed by `rows`.
std::string trace_with_rows(const std::vector<std::string>& rows) {
  std::stringstream buffer;
  save_trace({}, buffer);
  std::string text = buffer.str();
  for (const std::string& row : rows) text += row + "\n";
  return text;
}

const std::string kGoodRow = "7,10.5,120,240,1,0,LOCAL,3,360,2";

// Replace column `col` of kGoodRow.
std::string good_row_with(std::size_t col, const std::string& value) {
  std::vector<std::string> cells;
  std::stringstream row(kGoodRow);
  for (std::string cell; std::getline(row, cell, ',');) cells.push_back(cell);
  cells.at(col) = value;
  std::string out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out += (i ? "," : "") + cells[i];
  }
  return out;
}

void expect_rejected(const std::vector<std::string>& rows) {
  std::stringstream in(trace_with_rows(rows));
  EXPECT_THROW(load_trace(in), std::runtime_error) << rows.back();
}

TEST(Trace, AcceptsTheReferenceRow) {
  std::stringstream in(trace_with_rows({kGoodRow, kGoodRow}));
  const auto jobs = load_trace(in);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, 7u);
  EXPECT_EQ(jobs[0].arrival, 10.5);
  EXPECT_EQ(jobs[0].origin_cluster, 2u);
}

TEST(Trace, RejectsNonNumericCell) {
  expect_rejected({good_row_with(1, "soon")});  // was std::invalid_argument
}

TEST(Trace, RejectsOutOfRangeId) {
  expect_rejected({good_row_with(0, "18446744073709551616")});  // 2^64
}

TEST(Trace, RejectsNegativeId) {
  expect_rejected({good_row_with(0, "-1")});  // stoull wrapped it to 2^64-1
}

TEST(Trace, RejectsTrailingGarbage) {
  expect_rejected({good_row_with(1, "1.5abc")});
}

TEST(Trace, RejectsNanArrival) {
  expect_rejected({good_row_with(1, "nan")});
}

TEST(Trace, RejectsInfiniteBenefitFactor) {
  expect_rejected({good_row_with(7, "inf")});
}

TEST(Trace, RejectsNegativeExecTime) {
  expect_rejected({good_row_with(2, "-120")});
}

TEST(Trace, RejectsNegativeBenefitDeadline) {
  expect_rejected({good_row_with(8, "-1e-300")});
}

TEST(Trace, RejectsPartitionSizePastUint32) {
  expect_rejected({good_row_with(4, "4294967296")});  // 2^32: was truncated
}

TEST(Trace, RejectsOriginClusterPastUint32) {
  expect_rejected({good_row_with(9, "4294967297")});
}

TEST(Trace, RejectsBadCancellableFlag) {
  expect_rejected({good_row_with(5, "yes")});
}

TEST(Trace, RejectsExtraCells) {
  expect_rejected({kGoodRow + ",9"});
}

TEST(Trace, RejectsDecreasingArrivals) {
  // Full mode used to sort such rows in the event heap and streaming
  // mode threw "scheduling into the past" mid-run; now the reader stops.
  expect_rejected({good_row_with(1, "20"), good_row_with(1, "19.5")});
}

TEST(Trace, AcceptsEqualArrivals) {
  std::stringstream in(trace_with_rows({kGoodRow, kGoodRow, kGoodRow}));
  EXPECT_EQ(load_trace(in).size(), 3u);
}

TEST(Trace, ErrorNamesTheLine) {
  // Header is line 1, the blank line is line 3, the bad row is line 5.
  std::stringstream in(trace_with_rows(
      {kGoodRow, "", kGoodRow, good_row_with(2, "x")}));
  try {
    load_trace(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("exec_time"), std::string::npos)
        << e.what();
  }
}

TEST(Trace, RejectsMissingFile) {
  EXPECT_THROW(load_trace_file("/nonexistent/nope.csv"),
               std::runtime_error);
}

TEST(TraceStats, SummarizesCorrectly) {
  std::vector<Job> jobs(3);
  jobs[0].arrival = 0.0;
  jobs[0].exec_time = 100.0;
  jobs[0].job_class = JobClass::kLocal;
  jobs[1].arrival = 10.0;
  jobs[1].exec_time = 900.0;
  jobs[1].job_class = JobClass::kRemote;
  jobs[2].arrival = 20.0;
  jobs[2].exec_time = 200.0;
  jobs[2].job_class = JobClass::kLocal;
  const TraceStats s = summarize(jobs);
  EXPECT_EQ(s.jobs, 3u);
  EXPECT_EQ(s.local_jobs, 2u);
  EXPECT_EQ(s.remote_jobs, 1u);
  EXPECT_DOUBLE_EQ(s.mean_interarrival, 10.0);
  EXPECT_DOUBLE_EQ(s.mean_exec_time, 400.0);
  EXPECT_DOUBLE_EQ(s.max_exec_time, 900.0);
  EXPECT_DOUBLE_EQ(s.total_demand, 1200.0);
  EXPECT_DOUBLE_EQ(s.span, 20.0);
}

TEST(TraceStats, EmptyIsAllZero) {
  const TraceStats s = summarize({});
  EXPECT_EQ(s.jobs, 0u);
  EXPECT_DOUBLE_EQ(s.total_demand, 0.0);
}

}  // namespace
}  // namespace scal::workload
