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

#include "rms/base.hpp"

namespace scal::rms {

class ReceiverInitiatedScheduler : public DistributedSchedulerBase {
 public:
  using DistributedSchedulerBase::DistributedSchedulerBase;

  bool uses_middleware() const override { return true; }
  void on_start() override { start_volunteering(); }

 protected:
  void handle_job(workload::Job job) override;
  void handle_message(const grid::RmsMessage& msg) override;
  void after_batch(const grid::StatusBatch& batch) override;

 private:
  void park_job(workload::Job job);
  void drain_wait_queue_locally();

  std::deque<workload::Job> wait_queue_;
};

}  // namespace scal::rms
