#include "rms/receiver_initiated.hpp"

#include <algorithm>

namespace scal::rms {

void ReceiverInitiatedScheduler::handle_job(workload::Job job) {
  if (job.job_class == workload::JobClass::kLocal ||
      busy_fraction(cluster()) <= protocol().t_l) {
    schedule_local(std::move(job));
    return;
  }
  park_job(std::move(job));
}

void ReceiverInitiatedScheduler::park_job(workload::Job job) {
  const workload::JobId id = job.id;
  wait_queue_.push_back(std::move(job));
  // Fallback: never hold a job hostage to a volunteer that may not come.
  system().simulator().schedule_in(
      protocol().wait_queue_timeout, [this, id]() {
        const auto it =
            std::find_if(wait_queue_.begin(), wait_queue_.end(),
                         [id](const workload::Job& j) { return j.id == id; });
        if (it != wait_queue_.end()) {
          workload::Job job = std::move(*it);
          wait_queue_.erase(it);
          schedule_local(std::move(job));
        }
      });
}

void ReceiverInitiatedScheduler::after_batch(
    const grid::StatusBatch& /*batch*/) {
  if (busy_fraction(cluster()) <= protocol().t_l) drain_wait_queue_locally();
}

void ReceiverInitiatedScheduler::drain_wait_queue_locally() {
  while (!wait_queue_.empty() &&
         busy_fraction(cluster()) <= protocol().t_l) {
    workload::Job job = std::move(wait_queue_.front());
    wait_queue_.pop_front();
    schedule_local(std::move(job));
  }
}

void ReceiverInitiatedScheduler::handle_message(const grid::RmsMessage& msg) {
  switch (msg.kind) {
    case grid::MsgKind::kVolunteer: {
      if (wait_queue_.empty()) return;  // nothing to offer the volunteer
      workload::Job job = std::move(wait_queue_.front());
      wait_queue_.pop_front();
      request_demand(msg.from, std::move(job));
      return;
    }
    case grid::MsgKind::kDemandRequest:
      reply_demand(msg);
      return;
    case grid::MsgKind::kDemandReply:
      decide_demand_reply(msg);
      return;
    default:
      DistributedSchedulerBase::handle_message(msg);
  }
}

}  // namespace scal::rms
