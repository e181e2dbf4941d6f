#pragma once
// Job-trace persistence and summary statistics, so experiments can pin a
// workload to disk and replay it exactly (and so workload properties can
// be inspected outside the simulator).

#include <iosfwd>
#include <string>
#include <vector>

#include "workload/job.hpp"

namespace scal::workload {

/// Summary of an arrival stream.  The X-macro is the struct's only field
/// list; grid/result_schema.hpp walks it wherever a SimulationResult's
/// workload_stats is serialized or compared field by field.
#define SCAL_TRACE_STATS_FIELDS(X)                              \
  X(std::size_t, jobs)                                          \
  X(std::size_t, local_jobs)                                    \
  X(std::size_t, remote_jobs)                                   \
  X(double, mean_interarrival)                                  \
  X(double, mean_exec_time)                                     \
  X(double, max_exec_time)                                      \
  X(double, total_demand) /* sum of exec times */               \
  X(double, span)         /* last arrival - first arrival */

struct TraceStats {
#define SCAL_TRACE_STATS_MEMBER(type, name) type name{};
  SCAL_TRACE_STATS_FIELDS(SCAL_TRACE_STATS_MEMBER)
#undef SCAL_TRACE_STATS_MEMBER
};

TraceStats summarize(const std::vector<Job>& jobs);

/// Online fold of TraceStats, one job at a time in stream order.  The
/// fold performs the exact operation sequence of summarize(), so
/// accumulating a stream and summarizing the materialized vector yield
/// bitwise-identical stats — the streaming result path depends on that.
class TraceStatsAccumulator {
 public:
  void add(const Job& job);
  /// The finalized stats (means divided out); callable any time.
  TraceStats stats() const;

 private:
  std::size_t jobs_ = 0, local_ = 0, remote_ = 0;
  double exec_sum_ = 0.0;
  double demand_sum_ = 0.0;
  double max_exec_ = 0.0;
  double interarrival_sum_ = 0.0;
  double first_arrival_ = 0.0;
  double prev_arrival_ = 0.0;
};

/// Streaming CSV reader over the save_trace format: validates the header
/// on construction, then parses one row per next() call, holding O(1)
/// state.  load_trace is a drain over this.
class TraceReader {
 public:
  /// Reads and checks the header line; throws std::runtime_error on a
  /// header mismatch.  The stream must outlive the reader.
  explicit TraceReader(std::istream& in);

  /// Parse the next row into `out`; false at end of input.  Blank lines
  /// are skipped.  A malformed row throws std::runtime_error naming its
  /// line: every cell must parse completely, integers must fit their
  /// field, time and benefit fields must be finite and non-negative, and
  /// arrivals must be nondecreasing (the simulator pulls them in order).
  bool next(Job& out);

 private:
  std::istream* in_;
  std::size_t line_ = 0;  ///< lines read so far, header included
  double last_arrival_ = 0.0;
};

/// CSV round-trip: header + one row per job, exact field preservation
/// (times serialized with max precision).
void save_trace(const std::vector<Job>& jobs, std::ostream& out);
void save_trace_file(const std::vector<Job>& jobs, const std::string& path);
std::vector<Job> load_trace(std::istream& in);
std::vector<Job> load_trace_file(const std::string& path);

}  // namespace scal::workload
