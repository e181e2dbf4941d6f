// Byte-exact pin of whole-run outcomes.  Each row runs an 80-node grid to
// horizon 300 with the job log on and renders one tab-separated line:
//
//   label  events_dispatched  updates_suppressed  updates_received
//   result-hash  job-log-hash  [probe-hash]
//
// The result hash folds the bits of every stored SimulationResult field
// (walked with grid::for_each_field, doubles bit for bit); the job-log
// hash folds every lifecycle record (job, event, time bits, place) in
// order; the probe hash, on probe rows, folds every field of every
// time-series sample, so counters read mid-run are pinned too.  The
// matrix is every RmsKind x faults off/on x control plane off/on x full/
// streaming results x two seeds, plus one row per kind with change
// suppression off and three rows with a probe every 25 time units.
//
// tests/data/outcome_golden.tsv holds the expected lines.  A line changes
// only with a deliberate, documented model change; on a mismatch the
// test prints the actual line.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "grid/config.hpp"
#include "grid/joblog.hpp"
#include "grid/system.hpp"
#include "obs/probe.hpp"
#include "obs/telemetry.hpp"
#include "rms/scenario.hpp"
#include "support/hash64.hpp"
#include "support/result_equal.hpp"
#include "workload/arrival_cache.hpp"

namespace scal::grid {
namespace {

using test::Hash64;

constexpr const char* kFaultSpec = "churn:mtbf=200,mttr=25;net:drop=0.02";
constexpr std::uint64_t kSeeds[] = {42, 7};
constexpr double kProbeInterval = 25.0;

/// Every policy, the two extensions included (kAllRmsKinds holds the
/// paper's seven).
constexpr RmsKind kKinds[] = {
    RmsKind::kCentral,         RmsKind::kLowest,
    RmsKind::kReserve,         RmsKind::kAuction,
    RmsKind::kSenderInitiated, RmsKind::kReceiverInitiated,
    RmsKind::kSymmetric,       RmsKind::kHierarchical,
    RmsKind::kRandom,
};

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

void aggregate(GridConfig& config) {
  config.control_plane = true;
  config.tuning.agg_fanout = 2;
  config.tuning.agg_batch = 4;
  config.tuning.agg_flush = 5.0;
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
          if (ctrl) aggregate(row.config);
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
    aggregate(row.config);
    row.config.result_mode = ResultMode::kStreaming;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string probe_hash(const obs::TimeSeriesProbe& probe) {
  Hash64 h;
  h.add(probe.samples().size());
  for (const obs::ProbeSample& s : probe.samples()) {
    for (const double v :
         {s.at, s.F, s.G, s.H, s.efficiency, s.efficiency_windowed,
          s.pool_busy_fraction, s.mean_resource_load, s.scheduler_util,
          s.estimator_util, s.middleware_util}) {
      h.add_double(v);
    }
    for (const std::uint64_t v :
         {s.scheduler_backlog, s.middleware_backlog, s.jobs_arrived,
          s.jobs_completed, s.events_dispatched}) {
      h.add(v);
    }
  }
  return h.hex();
}

/// Run one row on a cleared arrival cache and render its line.
std::string run_row(const Row& row) {
  workload::ArrivalCache::instance().clear();
  std::unique_ptr<obs::Telemetry> telemetry;
  GridConfig config = row.config;
  if (row.probe) {
    obs::TelemetryConfig tc;
    tc.probe_path = ::testing::TempDir() + "outcome_golden_probe.csv";
    tc.probe_interval = kProbeInterval;
    telemetry = std::make_unique<obs::Telemetry>(tc);
    config.telemetry = telemetry.get();
  }
  const std::unique_ptr<GridSystem> system = Scenario(config).build();
  const SimulationResult result = system->run();

  Hash64 fields;
  for_each_field(
      [&fields](const FieldName&, const auto& value) {
        fields.add(test::result_equal_detail::bits(value));
      },
      result);
  Hash64 log;
  for (const JobLogRecord& rec : system->job_log().records()) {
    log.add(rec.job);
    log.add(static_cast<std::uint64_t>(rec.event));
    log.add_double(rec.at);
    log.add(rec.place);
  }
  std::ostringstream line;
  line << row.label << '\t' << result.events_dispatched << '\t'
       << result.updates_suppressed << '\t' << result.updates_received
       << '\t' << fields.hex() << '\t' << log.hex();
  if (telemetry) line << '\t' << probe_hash(*telemetry->probe());
  return line.str();
}

const std::vector<std::string>& golden_file() {
  static const std::vector<std::string> lines = [] {
    std::vector<std::string> out;
    std::ifstream in(std::string(SCAL_SOURCE_DIR) +
                     "/tests/data/outcome_golden.tsv");
    for (std::string line; std::getline(in, line);) out.push_back(line);
    return out;
  }();
  return lines;
}

/// The golden lines keyed by label (the text before the first tab).
const std::map<std::string, std::string>& golden_lines() {
  static const std::map<std::string, std::string> lines = [] {
    std::map<std::string, std::string> out;
    for (const std::string& line : golden_file()) {
      out.emplace(line.substr(0, line.find('\t')), line);
    }
    return out;
  }();
  return lines;
}

class OutcomeGolden : public ::testing::TestWithParam<RmsKind> {};

TEST_P(OutcomeGolden, MatchesGoldenLines) {
  for (const Row& row : rows_for(GetParam())) {
    const std::string actual = run_row(row);
    const auto it = golden_lines().find(row.label);
    const std::string expected = it != golden_lines().end() ? it->second : "";
    EXPECT_EQ(actual, expected) << "outcome differs from the golden line\n"
                                << "actual: " << actual;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, OutcomeGolden, ::testing::ValuesIn(kKinds),
    [](const ::testing::TestParamInfo<RmsKind>& info) {
      std::string name = to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(OutcomeGoldenFile, HoldsExactlyTheMatrixRows) {
  std::set<std::string> labels;
  for (const RmsKind kind : kKinds) {
    for (const Row& row : rows_for(kind)) labels.insert(row.label);
  }
  std::set<std::string> file_labels;
  for (const auto& [label, line] : golden_lines()) file_labels.insert(label);
  EXPECT_EQ(labels.size(), 9u * (2 * 2 * 2 * 2 + 1) + 3);
  EXPECT_EQ(file_labels, labels);
  EXPECT_EQ(golden_file().size(), labels.size()) << "a label appears twice";
}

}  // namespace
}  // namespace scal::grid
