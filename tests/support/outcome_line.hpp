#pragma once
// What the whole-run goldens (outcome, protocol) share: the kinds they
// sweep, the line they pin for one run, and the files holding those
// lines.  A line reads
//
//   label  events_dispatched  updates_suppressed  updates_received
//   result-hash  job-log-hash  [probe-hash]
//
// The result hash folds the bits of every stored SimulationResult field
// (walked with grid::for_each_field, doubles bit for bit); the job-log
// hash folds every lifecycle record (job, event, time bits, place) in
// order; the probe hash, on probe rows, folds every field of every
// time-series sample, so counters read mid-run are pinned too.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "grid/config.hpp"
#include "grid/joblog.hpp"
#include "grid/system.hpp"
#include "obs/probe.hpp"
#include "obs/telemetry.hpp"
#include "rms/scenario.hpp"
#include "support/hash64.hpp"
#include "support/result_equal.hpp"
#include "workload/arrival_cache.hpp"

namespace scal::test {

/// Every policy, the two extensions included (grid::kAllRmsKinds holds
/// the paper's seven).
inline constexpr grid::RmsKind kEveryKind[] = {
    grid::RmsKind::kCentral,         grid::RmsKind::kLowest,
    grid::RmsKind::kReserve,         grid::RmsKind::kAuction,
    grid::RmsKind::kSenderInitiated, grid::RmsKind::kReceiverInitiated,
    grid::RmsKind::kSymmetric,       grid::RmsKind::kHierarchical,
    grid::RmsKind::kRandom,
};

/// The goldens' gtest parameter name for a kind ("S-I" becomes "S_I").
inline std::string kind_param_name(
    const ::testing::TestParamInfo<grid::RmsKind>& info) {
  std::string name = grid::to_string(info.param);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

/// The control plane the golden rows turn on: fan-out 2, batches of 4,
/// flushed every 5 time units.
inline void aggregate(grid::GridConfig& config) {
  config.control_plane = true;
  config.tuning.agg_fanout = 2;
  config.tuning.agg_batch = 4;
  config.tuning.agg_flush = 5.0;
}

inline std::string probe_hash(const obs::TimeSeriesProbe& probe) {
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

struct OutcomeLine {
  grid::SimulationResult result;
  std::string line;
};

/// Run `config` on a cleared arrival cache and render its golden line.
/// A positive `probe_interval` attaches a time-series probe and appends
/// its hash.
inline OutcomeLine run_outcome_line(const std::string& label,
                                    grid::GridConfig config,
                                    double probe_interval = 0.0) {
  workload::ArrivalCache::instance().clear();
  std::unique_ptr<obs::Telemetry> telemetry;
  if (probe_interval > 0.0) {
    obs::TelemetryConfig tc;
    tc.probe_path = ::testing::TempDir() + "outcome_golden_probe.csv";
    tc.probe_interval = probe_interval;
    telemetry = std::make_unique<obs::Telemetry>(tc);
    config.telemetry = telemetry.get();
  }
  const std::unique_ptr<grid::GridSystem> system = Scenario(config).build();
  OutcomeLine out{system->run(), {}};

  Hash64 fields;
  grid::for_each_field(
      [&fields](const grid::FieldName&, const auto& value) {
        fields.add(result_equal_detail::bits(value));
      },
      out.result);
  Hash64 log;
  for (const grid::JobLogRecord& rec : system->job_log().records()) {
    log.add(rec.job);
    log.add(static_cast<std::uint64_t>(rec.event));
    log.add_double(rec.at);
    log.add(rec.place);
  }
  std::ostringstream line;
  line << label << '\t' << out.result.events_dispatched << '\t'
       << out.result.updates_suppressed << '\t'
       << out.result.updates_received << '\t' << fields.hex() << '\t'
       << log.hex();
  if (telemetry) line << '\t' << probe_hash(*telemetry->probe());
  out.line = line.str();
  return out;
}

/// A golden file under tests/data: its lines in file order, and keyed
/// by label (the text before the first tab).
struct GoldenFile {
  explicit GoldenFile(const std::string& name) {
    std::ifstream in(std::string(SCAL_SOURCE_DIR) + "/tests/data/" + name);
    for (std::string line; std::getline(in, line);) {
      by_label.emplace(line.substr(0, line.find('\t')), line);
      lines.push_back(std::move(line));
    }
  }

  /// The golden line for `label`, or "" when the file has none.
  std::string line_for(const std::string& label) const {
    const auto it = by_label.find(label);
    return it != by_label.end() ? it->second : "";
  }

  std::vector<std::string> lines;
  std::map<std::string, std::string> by_label;
};

}  // namespace scal::test
