#pragma once
// Test drains: the first n jobs of a source or a generator, and a
// generator's jobs before a horizon.

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "sim/time.hpp"
#include "workload/generator.hpp"
#include "workload/stream.hpp"

namespace scal::test {

/// The first `n` jobs of `source`; throws if it holds fewer.
inline std::vector<workload::Job> first_jobs(workload::WorkloadSource& source,
                                             std::size_t n) {
  std::vector<workload::Job> jobs(n);
  for (workload::Job& job : jobs) {
    if (!source.next(job)) throw std::logic_error("first_jobs: exhausted");
  }
  return jobs;
}

/// The first `n` jobs of `gen`.
inline std::vector<workload::Job> first_jobs(workload::WorkloadGenerator& gen,
                                             std::size_t n) {
  std::vector<workload::Job> jobs(n);
  for (workload::Job& job : jobs) job = gen.next();
  return jobs;
}

/// Every job `gen` emits before `horizon` (exclusive).
inline std::vector<workload::Job> jobs_before(
    workload::WorkloadGenerator& gen, sim::Time horizon) {
  std::vector<workload::Job> jobs;
  for (workload::Job job = gen.next(); job.arrival < horizon;
       job = gen.next()) {
    jobs.push_back(job);
  }
  return jobs;
}

}  // namespace scal::test
