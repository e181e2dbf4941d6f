#include "grid/metrics.hpp"

#include "obs/histogram.hpp"

namespace scal::grid {

void MetricsCollector::observe_decision_queue(std::size_t depth) {
  if (queue_depth_hist_ != nullptr) {
    queue_depth_hist_->record(static_cast<double>(depth));
  }
}

void MetricsCollector::observe_staleness(double age) {
  if (staleness_hist_ != nullptr) staleness_hist_->record(age);
}

void MetricsCollector::record_arrival(const workload::Job& job) {
  record_job_event(job.id, JobEvent::kArrival, job.arrival,
                   job.origin_cluster);
  ++counts_.jobs_arrived;
  if (job.job_class == workload::JobClass::kLocal) ++counts_.jobs_local;
  else ++counts_.jobs_remote;
}

void MetricsCollector::record_completion(const workload::Job& job,
                                         sim::Time completion,
                                         double service_time,
                                         double control_cost) {
  ++counts_.jobs_completed;
  counts_.H_control += control_cost;
  const double response = completion - job.arrival;
  sink_.record_response(response);
  if (response_hist_ != nullptr) response_hist_->record(response);
  if (wait_hist_ != nullptr) wait_hist_->record(response - service_time);
  if (slowdown_hist_ != nullptr && service_time > 0.0) {
    slowdown_hist_->record(response / service_time);
  }
  // Success per the paper's user-benefit function U_b: the response must
  // be within benefit_factor times the job's actual run time.
  if (response <= job.benefit_factor * service_time) {
    ++counts_.jobs_succeeded;
    counts_.F += service_time;
  } else {
    ++counts_.jobs_missed_deadline;
    counts_.H_wasted += service_time;
  }
}

void MetricsCollector::record_unfinished(double partial_service_time) {
  counts_.H_wasted += partial_service_time;
}

void MetricsCollector::record_job_killed(double partial_service_time) {
  ++counts_.jobs_killed;
  counts_.H_wasted += partial_service_time;
}

}  // namespace scal::grid
