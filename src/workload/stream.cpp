#include "workload/stream.hpp"

namespace scal::workload {

std::vector<Job> collect(WorkloadSource& source) {
  std::vector<Job> jobs;
  Job job;
  while (source.next(job)) jobs.push_back(job);
  return jobs;
}

}  // namespace scal::workload
