#pragma once
// S-I [Shan-Oliker-Biswas via the paper]: sender-initiated
// superscheduling over a grid middleware.  On a REMOTE arrival the
// scheduler polls L_p remote schedulers, which answer with approximate
// waiting time (AWT), expected run time (ERT), and resource utilization
// status (RUS).  The approximate turnaround time ATT = AWT + ERT (plus
// the transfer delay for remote sites) picks the target; ties within
// tolerance psi break toward the smallest RUS.

#include "util/token_map.hpp"

#include "rms/base.hpp"

namespace scal::rms {

class SenderInitiatedScheduler : public DistributedSchedulerBase {
 public:
  using DistributedSchedulerBase::DistributedSchedulerBase;

  bool uses_middleware() const override { return true; }
  std::size_t parked_jobs() const override { return pending_.size(); }

 protected:
  void handle_job(workload::Job job) override;
  void handle_message(const grid::RmsMessage& msg) override;

  /// The S-I poll round; Sy-I falls back to this when it has no fresh
  /// advertisement.  `attempt` counts robustness retries.
  void start_att_poll(workload::Job job, std::uint32_t attempt = 0);

 private:
  struct AttRound {
    workload::Job job;
    std::size_t awaiting = 0;
    grid::ClusterId best_cluster = 0;
    double best_att = 0.0;
    double best_rus = 0.0;
    bool any_reply = false;
    std::uint32_t attempt = 0;
  };

  void conclude_att_round(AttRound round);

  util::TokenMap<std::uint64_t, AttRound> pending_;
};

}  // namespace scal::rms
