#pragma once
// LOWEST [Zhou'88 via the paper]: per-cluster schedulers with periodic
// updates.  LOCAL jobs go to the least-loaded local resource.  REMOTE
// jobs trigger a poll of L_p random remote schedulers; the job is
// transferred to the scheduler reporting the least-loaded resources
// (kept locally when the local cluster is at least as good).
//
// The poll round is the one probe-on-arrival mechanism: S-I runs it with
// its own quote and comparisons (the four virtual hooks below), AUCTION
// uses it for initial placement and Sy-I as its fallback.

#include "util/token_map.hpp"

#include "rms/base.hpp"

namespace scal::rms {

class LowestScheduler : public DistributedSchedulerBase {
 public:
  using DistributedSchedulerBase::DistributedSchedulerBase;

 protected:
  struct PollRound {
    workload::Job job;
    std::size_t awaiting = 0;
    grid::ClusterId best_cluster = 0;
    double best_quote = 0.0;
    double best_rus = 0.0;
    bool any_reply = false;
    std::uint32_t attempt = 0;
  };

  void handle_job(workload::Job job) override;
  void handle_message(const grid::RmsMessage& msg) override;

  /// REMOTE-arrival poll round.  `attempt` counts robustness retries of
  /// the same job's round.
  void start_poll_round(workload::Job job, std::uint32_t attempt = 0);

  // -- The round's policy hooks; LOWEST's choices are the defaults.

  /// What this scheduler quotes a poller for a job of demand `demand`:
  /// the least load in its cluster.
  virtual double quote(double demand) const;
  /// What the poller adds to a reply from `peer` before comparing it:
  /// nothing.
  virtual double reply_delay(grid::ClusterId /*peer*/) const { return 0.0; }
  /// Replies within this of the best tie, and the smaller RUS wins: 0.
  virtual double tie_tolerance() const { return 0.0; }
  /// Whether the concluded round's best reply beats placing the job
  /// locally: only a reply strictly below the local least load does.
  virtual bool beats_local(const PollRound& round) const;

 private:
  void conclude_round(PollRound round);

  util::TokenMap<std::uint64_t, PollRound> pending_;
};

}  // namespace scal::rms
