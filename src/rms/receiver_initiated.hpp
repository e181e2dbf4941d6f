#pragma once
// R-I [Shan-Oliker-Biswas via the paper]: receiver-initiated
// superscheduling over the grid middleware.  Each scheduler periodically
// checks its cluster's RUS; when a resource sits below delta it
// volunteers to at most L_p remote schedulers.  A scheduler holding a
// waiting REMOTE job answers a volunteer with the job's demands; the
// volunteer quotes ATT and RUS, and the holder transfers the job if the
// remote turnaround cost beats the local one.  REMOTE jobs arriving into
// a loaded cluster park in a wait queue until a volunteer shows up, the
// local cluster drains below T_l, or a timeout fires.

#include <deque>
#include "util/token_map.hpp"

#include "rms/base.hpp"

namespace scal::rms {

class ReceiverInitiatedScheduler : public DistributedSchedulerBase {
 public:
  using DistributedSchedulerBase::DistributedSchedulerBase;

  bool uses_middleware() const override { return true; }
  void on_start() override;
  std::size_t parked_jobs() const override {
    return wait_queue_.size() + negotiating_.size();
  }

 protected:
  void handle_job(workload::Job job) override;
  void handle_message(const grid::RmsMessage& msg) override;
  void after_batch(const grid::StatusBatch& batch) override;

  /// Periodic volunteering round (also reused by tests).
  void volunteer_tick();

 private:
  void park_job(workload::Job job);
  void drain_wait_queue_locally();

  std::deque<workload::Job> wait_queue_;
  util::TokenMap<std::uint64_t, workload::Job> negotiating_;
};

}  // namespace scal::rms
