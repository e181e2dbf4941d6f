#pragma once
// Job model from the paper (Section 3.1): jobs follow the moldable
// supercomputer workload characterization [22, 23] restricted to
// partition size 1 and zero cancellation probability.  A job is LOCAL if
// its execution time is at most T_CPU, REMOTE otherwise, and succeeds if
// it completes within the user-benefit deadline
//     U_b = u * execution_time,   u ~ Uniform[2, 5].

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace scal::workload {

using JobId = std::uint64_t;

enum class JobClass : std::uint8_t { kLocal, kRemote };

std::string to_string(JobClass c);

struct Job {
  JobId id = 0;
  sim::Time arrival = 0.0;         ///< submission instant
  sim::Time exec_time = 0.0;       ///< service demand at unit service rate
  sim::Time requested_time = 0.0;  ///< user's upper bound on exec_time
  std::uint32_t partition_size = 1;
  bool cancellable = false;
  JobClass job_class = JobClass::kLocal;
  /// The user-benefit factor u ~ Uniform[2, 5]: the job succeeds if its
  /// response time is within u times its actual run time on the resource
  /// (exec_time / service_rate).
  double benefit_factor = 3.0;
  sim::Time benefit_deadline = 0.0;  ///< u * exec_time, in demand units
  std::uint32_t origin_cluster = 0;  ///< cluster of the submitting node
  /// Crash-requeue attempts consumed so far (fault subsystem; runtime
  /// state, not part of the workload characterization or trace format).
  std::uint32_t attempts = 0;
};

}  // namespace scal::workload
