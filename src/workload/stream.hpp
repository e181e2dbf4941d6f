#pragma once
// WorkloadSource — the one pull interface for arrivals
// (docs/WORKLOADS.md).
//
// Every consumer of a workload pulls jobs one at a time through next(),
// so per-job memory stays O(1) no matter how long the stream runs: a
// 100M-job horizon costs the same resident set as a 1k-job one.
// Materializing is a choice the caller makes with collect(), the one
// drain.

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/time.hpp"
#include "workload/job.hpp"

namespace scal::workload {

/// An ordered stream of jobs: arrivals in nondecreasing time order, ids
/// stream-local and stable.
class WorkloadSource {
 public:
  virtual ~WorkloadSource() = default;

  /// Pull the next job into `out`; false when the stream is exhausted
  /// (and then forever after).
  virtual bool next(Job& out) = 0;
};

/// Drain a source into a vector, for callers that need every job
/// resident.
std::vector<Job> collect(WorkloadSource& source);

/// Replay of an already-materialized stream (an ArrivalCache entry, a
/// loaded log): shares the immutable vector, holds O(1) state.
class VectorReplayStream final : public WorkloadSource {
 public:
  explicit VectorReplayStream(std::shared_ptr<const std::vector<Job>> jobs)
      : jobs_(std::move(jobs)) {}

  bool next(Job& out) override {
    if (jobs_ == nullptr || pos_ >= jobs_->size()) return false;
    out = (*jobs_)[pos_++];
    return true;
  }

 private:
  std::shared_ptr<const std::vector<Job>> jobs_;
  std::size_t pos_ = 0;
};

/// Terminate a base source at `horizon` (exclusive): the first job at or
/// past the horizon is consumed from the base and dropped, and the
/// stream is exhausted from then on.
class BoundedStream final : public WorkloadSource {
 public:
  BoundedStream(std::unique_ptr<WorkloadSource> base, sim::Time horizon)
      : base_(std::move(base)), horizon_(horizon) {}

  bool next(Job& out) override {
    if (done_ || !base_->next(out) || out.arrival >= horizon_) {
      done_ = true;
      return false;
    }
    return true;
  }

 private:
  std::unique_ptr<WorkloadSource> base_;
  sim::Time horizon_;
  bool done_ = false;
};

}  // namespace scal::workload
