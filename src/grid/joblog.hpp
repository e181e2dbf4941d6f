#pragma once
// Optional job-lifecycle event log.  When GridConfig::job_log is set,
// every job's arrival, transfers, dispatch, service start, and
// completion are recorded with timestamps, enabling post-run analysis
// of where response time goes (placement latency vs queueing vs
// service) — per job or in aggregate.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"
#include "util/stats.hpp"
#include "workload/job.hpp"

namespace scal::grid {

enum class JobEvent : std::uint8_t {
  kArrival,   ///< submitted at its origin cluster
  kTransfer,  ///< handed to another scheduler (kJobTransfer on the wire)
  kDispatch,  ///< shipped to a concrete resource
  kStart,     ///< service begins on the resource
  kComplete,  ///< service done (success or miss decided elsewhere)
  kKilled,    ///< destroyed by a resource crash (fault injection)
};

const char* to_string(JobEvent event);

struct JobLogRecord {
  workload::JobId job = 0;
  JobEvent event = JobEvent::kArrival;
  sim::Time at = 0.0;
  std::uint32_t place = 0;  ///< cluster (arrival/transfer/dispatch) or
                            ///< resource index (start/complete)
};

class JobLog {
 public:
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  bool enabled() const noexcept { return enabled_; }

  /// Bound the log at `capacity` records (0 = unbounded, the default).
  /// Records past the cap are counted in dropped() instead of stored —
  /// the streaming tier's "first N records, then count" discipline.
  void set_capacity(std::size_t capacity) noexcept { capacity_ = capacity; }
  std::size_t capacity() const noexcept { return capacity_; }
  /// Records discarded by the capacity bound.
  std::uint64_t dropped() const noexcept { return dropped_; }

  void record(workload::JobId job, JobEvent event, sim::Time at,
              std::uint32_t place = 0);

  std::size_t size() const noexcept { return records_.size(); }
  const std::vector<JobLogRecord>& records() const noexcept {
    return records_;
  }

  /// All records of one job, in time order (they are appended in time
  /// order already, since the simulation clock is monotone).
  std::vector<JobLogRecord> timeline(workload::JobId job) const;

  /// Count of records with this event type.
  std::size_t count(JobEvent event) const;

  /// Per-job delay between the first `from` and the first `to` event;
  /// jobs missing either event are skipped.
  util::Samples delays(JobEvent from, JobEvent to) const;

  /// Number of kTransfer hops for one job.
  std::size_t transfer_hops(workload::JobId job) const;

 private:
  bool enabled_ = false;
  std::size_t capacity_ = 0;  // 0 = unbounded
  std::uint64_t dropped_ = 0;
  std::vector<JobLogRecord> records_;
  // job -> indices into records_, for O(1) timeline lookup.
  std::unordered_map<workload::JobId, std::vector<std::size_t>> by_job_;
};

}  // namespace scal::grid
