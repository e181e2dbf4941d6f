#pragma once
// Standard Workload Format (SWF) reader: the archive format of the
// Parallel Workloads Archive (Feitelson et al.), used by virtually every
// published supercomputer log.  A log is ';'-comment headers followed by
// one whitespace-separated record per job with 18 standard fields;
// missing values are the sentinel -1.  load_swf maps the fields the
// simulator consumes (submit, run, requested time, user) onto
// workload::Job under a configurable time scale and fills the
// paper-model fields the format lacks (benefit factors) from a dedicated
// seed substream — so a given (log, mapping) pair always yields the same
// stream.  Field mapping table in docs/WORKLOADS.md.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "workload/job.hpp"

namespace scal::workload {

/// How SWF records translate into simulator jobs.
struct SwfMapping {
  /// Simulation time units per trace second.  Real logs span days to
  /// months; scale them into the configured horizon.
  double time_scale = 1.0;
  /// LOCAL/REMOTE threshold applied to the scaled run time (paper
  /// Table 1), matching WorkloadConfig::t_cpu.
  double t_cpu = 700.0;
  /// Benefit factor u ~ Uniform[lo, hi] (the SWF has no deadline
  /// notion), drawn per job in arrival order from the "swf-benefit"
  /// substream of `seed`.
  double benefit_lo = 2.0;
  double benefit_hi = 5.0;
  /// Cluster count for origin mapping: origin = uid mod clusters (uid
  /// missing: round-robin by arrival rank).
  std::uint32_t clusters = 1;
  std::uint64_t seed = 42;
};

/// Parse an SWF stream under `mapping`.  Comment/header lines (';' or
/// '#') and blank lines are skipped; records need at least the first
/// four fields (job, submit, wait, run) — shorter records throw
/// std::runtime_error, while absent trailing fields default to -1.
/// Jobs with no positive runtime (run and requested time both missing
/// or zero) or no submit time are dropped.  The result is sorted by
/// submit time (stable), rebased so the first arrival is 0, and
/// re-numbered with sequential ids.
std::vector<Job> load_swf(std::istream& in, const SwfMapping& mapping);
std::vector<Job> load_swf_file(const std::string& path,
                               const SwfMapping& mapping);

}  // namespace scal::workload
