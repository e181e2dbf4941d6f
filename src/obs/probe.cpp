#include "obs/probe.hpp"

#include <cmath>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "obs/json.hpp"
#include "util/log.hpp"

namespace scal::obs {

TimeSeriesProbe::TimeSeriesProbe(double interval) : interval_(interval) {
  if (!std::isfinite(interval_) || !(interval_ > 0.0)) {
    throw std::invalid_argument(
        "TimeSeriesProbe: interval must be finite and positive");
  }
}

void TimeSeriesProbe::add(ProbeSample sample) {
  const double total = sample.F + sample.G + sample.H;
  sample.efficiency = total > 0.0 ? sample.F / total : 0.0;
  if (!samples_.empty()) {
    const ProbeSample& prev = samples_.back();
    const double dF = sample.F - prev.F;
    const double dG = sample.G - prev.G;
    const double dH = sample.H - prev.H;
    const double window = dF + dG + dH;
    sample.efficiency_windowed = window > 0.0 ? dF / window : 0.0;
  } else {
    sample.efficiency_windowed = sample.efficiency;
  }
  samples_.push_back(sample);
}

std::vector<std::string> TimeSeriesProbe::csv_header() {
  return {"t",
          "F",
          "G",
          "H",
          "efficiency",
          "efficiency_windowed",
          "pool_busy_fraction",
          "mean_resource_load",
          "scheduler_backlog",
          "middleware_backlog",
          "scheduler_util",
          "estimator_util",
          "middleware_util",
          "jobs_arrived",
          "jobs_completed",
          "events_dispatched",
          "max_resource_load",
          "hottest_cluster_busy"};
}

void TimeSeriesProbe::write_csv(std::ostream& os) const {
  bool first = true;
  for (const std::string& column : csv_header()) {
    if (!first) os << ',';
    first = false;
    os << column;
  }
  os << '\n';
  for (const ProbeSample& s : samples_) {
    // json_number doubles as a shortest-round-trip decimal formatter, so
    // the final row reproduces the result scalars digit for digit.
    os << json_number(s.at) << ',' << json_number(s.F) << ','
       << json_number(s.G) << ',' << json_number(s.H) << ','
       << json_number(s.efficiency) << ','
       << json_number(s.efficiency_windowed) << ','
       << json_number(s.pool_busy_fraction) << ','
       << json_number(s.mean_resource_load) << ',' << s.scheduler_backlog
       << ',' << s.middleware_backlog << ','
       << json_number(s.scheduler_util) << ','
       << json_number(s.estimator_util) << ','
       << json_number(s.middleware_util) << ',' << s.jobs_arrived << ','
       << s.jobs_completed << ',' << s.events_dispatched << ','
       << json_number(s.max_resource_load) << ','
       << json_number(s.hottest_cluster_busy) << '\n';
  }
}

bool TimeSeriesProbe::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    SCAL_WARN("probe: cannot open " << path);
    return false;
  }
  write_csv(out);
  return static_cast<bool>(out);
}

}  // namespace scal::obs
