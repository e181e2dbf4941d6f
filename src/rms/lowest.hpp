#pragma once
// LOWEST [Zhou'88 via the paper]: per-cluster schedulers with periodic
// updates.  LOCAL jobs go to the least-loaded local resource.  REMOTE
// jobs trigger a poll of L_p random remote schedulers; the job is
// transferred to the scheduler reporting the least-loaded resources
// (kept locally when the local cluster is at least as good).

#include "util/token_map.hpp"

#include "rms/base.hpp"

namespace scal::rms {

class LowestScheduler : public DistributedSchedulerBase {
 public:
  using DistributedSchedulerBase::DistributedSchedulerBase;

  std::size_t parked_jobs() const override { return pending_.size(); }

 protected:
  void handle_job(workload::Job job) override;
  void handle_message(const grid::RmsMessage& msg) override;

  /// REMOTE-arrival poll round (also AUCTION's initial scheduling).
  /// `attempt` counts robustness retries of the same job's round.
  void start_poll_round(workload::Job job, std::uint32_t attempt = 0);

 private:
  struct PollRound {
    workload::Job job;
    std::size_t awaiting = 0;
    grid::ClusterId best_cluster = 0;
    double best_load = 0.0;
    double best_rus = 0.0;
    bool any_reply = false;
    std::uint32_t attempt = 0;
  };

  void conclude_round(PollRound round);

  util::TokenMap<std::uint64_t, PollRound> pending_;
};

}  // namespace scal::rms
