// Byte-exact pin of whole-run outcomes.  Each row runs an 80-node grid to
// horizon 300 with the job log on and renders one tab-separated line
// (support/outcome_line.hpp: events, the update counters, a hash of
// every stored result field and of the job log, and on probe rows a
// hash of every time-series sample).  The matrix is every RmsKind x
// faults off/on x control plane off/on x full/streaming results x two
// seeds, plus one row per kind with change suppression off and three
// rows with a probe every 25 time units.
//
// tests/data/outcome_golden.tsv holds the expected lines.  A line changes
// only with a deliberate, documented model change; on a mismatch the
// test prints the actual line.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "grid/config.hpp"
#include "support/outcome_line.hpp"

namespace scal::grid {
namespace {

constexpr const char* kFaultSpec = "churn:mtbf=200,mttr=25;net:drop=0.02";
constexpr std::uint64_t kSeeds[] = {42, 7};
constexpr double kProbeInterval = 25.0;

struct Row {
  std::string label;
  GridConfig config;
  bool probe = false;
};

GridConfig base_config(RmsKind kind, std::uint64_t seed) {
  GridConfig config;
  config.rms = kind;
  config.topology.nodes = 80;
  config.horizon = 300.0;
  config.seed = seed;
  config.job_log = true;
  return config;
}

/// Every row of one kind, in file order.
std::vector<Row> rows_for(RmsKind kind) {
  const std::string name = to_string(kind);
  std::vector<Row> rows;
  for (const bool faults : {false, true}) {
    for (const bool ctrl : {false, true}) {
      for (const ResultMode mode :
           {ResultMode::kFull, ResultMode::kStreaming}) {
        for (const std::uint64_t seed : kSeeds) {
          Row row;
          row.label = name + (faults ? "/faults" : "/nofaults") +
                      (ctrl ? "/ctrl" : "/noctrl") +
                      (mode == ResultMode::kFull ? "/full" : "/streaming") +
                      "/seed" + std::to_string(seed);
          row.config = base_config(kind, seed);
          if (faults) row.config.faults = fault::FaultPlan::parse(kFaultSpec);
          if (ctrl) test::aggregate(row.config);
          row.config.result_mode = mode;
          rows.push_back(std::move(row));
        }
      }
    }
  }
  Row unsuppressed{name + "/nosuppression", base_config(kind, kSeeds[0])};
  unsuppressed.config.update_suppression = false;
  rows.push_back(std::move(unsuppressed));

  // Probe rows: a quiet default run, a faulty one, and a streaming
  // control-plane one.
  if (kind == RmsKind::kLowest) {
    rows.push_back({name + "/probe", base_config(kind, kSeeds[0]), true});
  } else if (kind == RmsKind::kAuction) {
    Row row{name + "/faults/probe", base_config(kind, kSeeds[0]), true};
    row.config.faults = fault::FaultPlan::parse(kFaultSpec);
    rows.push_back(std::move(row));
  } else if (kind == RmsKind::kSenderInitiated) {
    Row row{name + "/ctrl/streaming/probe", base_config(kind, kSeeds[1]),
            true};
    test::aggregate(row.config);
    row.config.result_mode = ResultMode::kStreaming;
    rows.push_back(std::move(row));
  }
  return rows;
}

const test::GoldenFile& golden() {
  static const test::GoldenFile file("outcome_golden.tsv");
  return file;
}

class OutcomeGolden : public ::testing::TestWithParam<RmsKind> {};

TEST_P(OutcomeGolden, MatchesGoldenLines) {
  for (const Row& row : rows_for(GetParam())) {
    const std::string actual =
        test::run_outcome_line(row.label, row.config,
                               row.probe ? kProbeInterval : 0.0)
            .line;
    EXPECT_EQ(actual, golden().line_for(row.label))
        << "outcome differs from the golden line\n"
        << "actual: " << actual;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, OutcomeGolden,
                         ::testing::ValuesIn(test::kEveryKind),
                         test::kind_param_name);

TEST(OutcomeGoldenFile, HoldsExactlyTheMatrixRows) {
  std::set<std::string> labels;
  for (const RmsKind kind : test::kEveryKind) {
    for (const Row& row : rows_for(kind)) labels.insert(row.label);
  }
  std::set<std::string> file_labels;
  for (const auto& [label, line] : golden().by_label) {
    file_labels.insert(label);
  }
  EXPECT_EQ(labels.size(), 9u * (2 * 2 * 2 * 2 + 1) + 3);
  EXPECT_EQ(file_labels, labels);
  EXPECT_EQ(golden().lines.size(), labels.size()) << "a label appears twice";
}

}  // namespace
}  // namespace scal::grid
