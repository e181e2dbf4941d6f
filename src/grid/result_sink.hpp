#pragma once
// ResultSink — the result half of the streaming tier's API split.
//
// MetricsCollector used to play two roles: fold the F/G/H counters AND
// own the per-job result storage (the exact response-time samples, the
// lifecycle log).  The counters are O(1) already; the storage is what
// capped runs at ~10^6 jobs.  A ResultSink isolates that storage choice
// behind an interface selected by GridConfig::result_mode:
//
//   FullResultSink      — util::Samples + unbounded JobLog.  Exact
//                         percentiles; byte-identical to the legacy
//                         collector.  O(jobs) memory.
//   StreamingResultSink — running sum/count (the mean is bitwise
//                         identical to Samples::mean, which sums in the
//                         same insertion order) + an HDR histogram for
//                         percentiles (<= one sub-bucket of relative
//                         error) + a capacity-bounded JobLog.  O(1)
//                         memory per job.
//
// Every sink owns a JobLog so lifecycle events always have one
// destination; policies and components record through
// MetricsCollector::record_job_event instead of mutating job_log()
// directly.

#include <cstdint>
#include <memory>

#include "grid/joblog.hpp"
#include "grid/result_mode.hpp"
#include "obs/histogram.hpp"
#include "util/stats.hpp"

namespace scal::grid {

class ResultSink {
 public:
  virtual ~ResultSink() = default;

  JobLog& log() noexcept { return log_; }
  const JobLog& log() const noexcept { return log_; }

  virtual ResultMode mode() const noexcept = 0;

  /// Fold one completed job's response time.
  virtual void record_response(double response) = 0;
  virtual std::uint64_t response_count() const noexcept = 0;
  virtual double response_mean() const = 0;
  virtual double response_p95() const = 0;

  /// The exact sample store, or null when the sink folds online.
  virtual const util::Samples* samples() const noexcept { return nullptr; }

 private:
  JobLog log_;
};

class FullResultSink final : public ResultSink {
 public:
  ResultMode mode() const noexcept override { return ResultMode::kFull; }
  void record_response(double response) override { response_.add(response); }
  std::uint64_t response_count() const noexcept override {
    return response_.count();
  }
  double response_mean() const override { return response_.mean(); }
  double response_p95() const override { return response_.percentile(95.0); }
  const util::Samples* samples() const noexcept override { return &response_; }

 private:
  util::Samples response_;
};

class StreamingResultSink final : public ResultSink {
 public:
  ResultMode mode() const noexcept override { return ResultMode::kStreaming; }
  void record_response(double response) override {
    // Identical op sequence to Samples::mean()'s fold (0.0-seeded sum in
    // completion order), so response_mean() is bitwise identical to the
    // full sink's.
    ++count_;
    sum_ += response;
    hist_.record(response);
  }
  std::uint64_t response_count() const noexcept override { return count_; }
  double response_mean() const override {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// Approximate: HDR-histogram percentile (fixed memory, <= one
  /// sub-bucket of relative error) — exact streaming percentiles would
  /// need O(jobs) state.
  double response_p95() const override {
    return count_ > 0 ? hist_.percentile(95.0) : 0.0;
  }
  const obs::Histogram& response_histogram() const noexcept { return hist_; }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  obs::Histogram hist_;
};

/// Build the sink matching `mode`.
std::unique_ptr<ResultSink> make_result_sink(ResultMode mode);

}  // namespace scal::grid
