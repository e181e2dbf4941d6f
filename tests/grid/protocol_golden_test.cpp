// Byte-exact pin of the distributed policies' protocol timeouts and
// retries.  The outcome golden's mild fault plan fires no round retry,
// so its rows leave the reply watchdogs, the retry-with-backoff step
// and the volunteering paths unpinned.  Each row here runs an 80-node
// grid to horizon 300 at mean interarrival 2.0 with the job log on,
// under one of two fault plans that drop and delay control messages and
// black out schedulers, and renders the outcome golden's line
// (support/outcome_line.hpp).  The matrix is every RmsKind x the two
// plans x seeds 42 and 7 x control plane off/on.
//
// Each row also checks that it still exercises those paths: the
// poll-round and reservation policies retry at least one round, and the
// volunteering policies send at least one advert.
//
// tests/data/protocol_golden.tsv holds the expected lines.  A line
// changes only with a deliberate, documented model change; on a
// mismatch the test prints the actual line.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fault/plan.hpp"
#include "grid/config.hpp"
#include "support/outcome_line.hpp"

namespace scal::grid {
namespace {

/// Half the control messages lost, schedulers dark a third of the time.
constexpr const char* kLossySpec =
    "net:drop=0.4;sched-blackout:period=60,length=30";
/// Churn, loss and long delays on every layer at once.
constexpr const char* kHarshSpec =
    "churn:mtbf=80,mttr=40;net:drop=0.3,delayp=0.3,delaym=30;"
    "sched-blackout:period=70,length=25;est-blackout:period=50,length=10";
constexpr std::pair<const char*, const char*> kPlans[] = {
    {"lossy", kLossySpec}, {"harsh", kHarshSpec}};
constexpr std::uint64_t kSeeds[] = {42, 7};

struct Row {
  std::string label;
  GridConfig config;
};

/// Every row of one kind, in file order.
std::vector<Row> rows_for(RmsKind kind) {
  std::vector<Row> rows;
  for (const auto& [plan, spec] : kPlans) {
    for (const bool ctrl : {false, true}) {
      for (const std::uint64_t seed : kSeeds) {
        Row row;
        row.label = std::string(to_string(kind)) + '/' + plan +
                    (ctrl ? "/ctrl" : "/noctrl") + "/seed" +
                    std::to_string(seed);
        row.config.rms = kind;
        row.config.topology.nodes = 80;
        row.config.horizon = 300.0;
        row.config.seed = seed;
        row.config.job_log = true;
        row.config.workload.mean_interarrival = 2.0;
        row.config.faults = fault::FaultPlan::parse(spec);
        if (ctrl) test::aggregate(row.config);
        rows.push_back(std::move(row));
      }
    }
  }
  return rows;
}

bool retries_rounds(RmsKind kind) {
  return kind == RmsKind::kLowest || kind == RmsKind::kReserve ||
         kind == RmsKind::kAuction || kind == RmsKind::kSenderInitiated ||
         kind == RmsKind::kSymmetric;
}

bool volunteers(RmsKind kind) {
  return kind == RmsKind::kReceiverInitiated ||
         kind == RmsKind::kSymmetric;
}

const test::GoldenFile& golden() {
  static const test::GoldenFile file("protocol_golden.tsv");
  return file;
}

class ProtocolGolden : public ::testing::TestWithParam<RmsKind> {};

TEST_P(ProtocolGolden, MatchesGoldenLines) {
  for (const Row& row : rows_for(GetParam())) {
    const test::OutcomeLine actual =
        test::run_outcome_line(row.label, row.config);
    EXPECT_EQ(actual.line, golden().line_for(row.label))
        << "outcome differs from the golden line\n"
        << "actual: " << actual.line;
    if (retries_rounds(GetParam())) {
      EXPECT_GT(actual.result.round_retries, 0u) << row.label;
    }
    if (volunteers(GetParam())) {
      EXPECT_GT(actual.result.adverts, 0u) << row.label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ProtocolGolden,
                         ::testing::ValuesIn(test::kEveryKind),
                         test::kind_param_name);

TEST(ProtocolGoldenFile, HoldsExactlyTheMatrixRows) {
  std::set<std::string> labels;
  for (const RmsKind kind : test::kEveryKind) {
    for (const Row& row : rows_for(kind)) labels.insert(row.label);
  }
  std::set<std::string> file_labels;
  for (const auto& [label, line] : golden().by_label) {
    file_labels.insert(label);
  }
  EXPECT_EQ(labels.size(), 9u * 2 * 2 * 2);
  EXPECT_EQ(file_labels, labels);
  EXPECT_EQ(golden().lines.size(), labels.size()) << "a label appears twice";
}

}  // namespace
}  // namespace scal::grid
