#pragma once
// ResultSink — the per-job result storage of one run.
//
// The F/G/H counters in MetricsCollector are O(1) already; what grows
// with the job count is the response-time store and the lifecycle log.
// The sink holds both, and GridConfig::result_mode picks how the
// response times are kept:
//
//   full       — an exact util::Samples store: exact percentiles,
//                O(jobs) memory.
//   streaming  — an HDR histogram: percentiles within one sub-bucket of
//                relative error, O(1) memory per job.
//
// In both modes a running count and sum give the mean: the exact fold
// util::Samples::mean performs (a 0.0-seeded sum in completion order),
// so the mean is bitwise identical across modes.  The JobLog is bounded
// by GridConfig::job_log_capacity; policies and components record
// through MetricsCollector::record_job_event instead of writing it
// directly.

#include <cstdint>

#include "grid/joblog.hpp"
#include "grid/result_mode.hpp"
#include "obs/histogram.hpp"
#include "util/stats.hpp"

namespace scal::grid {

class ResultSink {
 public:
  explicit ResultSink(ResultMode mode = ResultMode::kFull) : mode_(mode) {}

  ResultMode mode() const noexcept { return mode_; }

  JobLog& log() noexcept { return log_; }
  const JobLog& log() const noexcept { return log_; }

  /// Fold one completed job's response time.
  void record_response(double response) {
    ++count_;
    sum_ += response;
    if (mode_ == ResultMode::kFull) {
      exact_.add(response);
    } else {
      approx_.record(response);
    }
  }

  std::uint64_t response_count() const noexcept { return count_; }
  double response_mean() const noexcept {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// 95th-percentile response: exact in full mode, an HDR-histogram
  /// estimate in streaming mode; 0 before any completion.
  double response_p95() const {
    return mode_ == ResultMode::kFull ? exact_.percentile(95.0)
                                      : approx_.percentile(95.0);
  }

 private:
  ResultMode mode_;
  JobLog log_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  util::Samples exact_;     ///< full mode only
  obs::Histogram approx_;   ///< streaming mode only
};

}  // namespace scal::grid
