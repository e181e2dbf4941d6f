#pragma once
// TimeSeriesProbe: periodic samples of run state on a fixed sim-time
// cadence, exported as CSV.  The probe itself is a passive store — the
// grid layer drives it from a periodic simulator event (so sampling is
// deterministic in sim time), fills the raw fields, and appends one
// final row at the horizon whose cumulative F/G/H equal the run's
// SimulationResult scalars exactly.
//
// Windowed efficiency E(t) is derived here from consecutive cumulative
// rows: dF / (dF + dG + dH) over the last interval.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace scal::obs {

struct ProbeSample {
  double at = 0.0;

  // Cumulative work terms (the paper's F, G, H at time t).
  double F = 0.0;
  double G = 0.0;
  double H = 0.0;
  /// Cumulative efficiency F / (F + G + H); 0 before any work.
  double efficiency = 0.0;
  /// Efficiency over the last sampling window only.
  double efficiency_windowed = 0.0;

  // Instantaneous state.
  double pool_busy_fraction = 0.0;
  double mean_resource_load = 0.0;
  double max_resource_load = 0.0;
  /// Busy fraction of the single hottest cluster (hot-spot detection).
  double hottest_cluster_busy = 0.0;
  std::uint64_t scheduler_backlog = 0;  ///< queued work items, all schedulers
  std::uint64_t middleware_backlog = 0;

  // Per-server-class utilization over the last window (busy-time delta /
  // capacity of the window).
  double scheduler_util = 0.0;
  double estimator_util = 0.0;
  double middleware_util = 0.0;

  // Progress counters.
  std::uint64_t jobs_arrived = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t events_dispatched = 0;
};

class TimeSeriesProbe {
 public:
  explicit TimeSeriesProbe(double interval);

  double interval() const noexcept { return interval_; }

  /// Append a sample; the efficiency fields are computed here from the
  /// cumulative F/G/H (the caller fills everything else).
  void add(ProbeSample sample);

  const std::vector<ProbeSample>& samples() const noexcept {
    return samples_;
  }
  bool empty() const noexcept { return samples_.empty(); }

  static std::vector<std::string> csv_header();
  void write_csv(std::ostream& os) const;
  /// Returns false (and logs) when the file cannot be written.
  bool write_file(const std::string& path) const;

 private:
  double interval_;
  std::vector<ProbeSample> samples_;
};

}  // namespace scal::obs
