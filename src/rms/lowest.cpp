#include "rms/lowest.hpp"

#include <cmath>

namespace scal::rms {

void LowestScheduler::handle_job(workload::Job job) {
  if (job.job_class == workload::JobClass::kLocal) {
    schedule_local(std::move(job));
    return;
  }
  start_poll_round(std::move(job));
}

void LowestScheduler::start_poll_round(workload::Job job,
                                       std::uint32_t attempt) {
  const auto peers = random_peers(tuning().neighborhood_size);
  if (peers.empty()) {
    schedule_local(std::move(job));
    return;
  }
  const std::uint64_t token = next_token();
  PollRound round;
  round.job = std::move(job);
  round.awaiting = peers.size();
  round.attempt = attempt;
  auto [it, inserted] = pending_.emplace(token, std::move(round));
  (void)inserted;
  for (const grid::ClusterId peer : peers) {
    system().metrics().count_poll();
    grid::RmsMessage poll;
    poll.kind = grid::MsgKind::kPollRequest;
    poll.token = token;
    poll.a = it->second.job.exec_time;  // demand, for S-I's ERT estimate
    send_message(peer, std::move(poll), costs().sched_poll);
  }
  // Watchdog: lost replies (failure injection) must never strand a job.
  system().simulator().schedule_in(
      protocol().reply_timeout, [this, token]() {
        const auto round_it = pending_.find(token);
        if (round_it == pending_.end()) return;
        PollRound late = std::move(round_it->second);
        pending_.erase(round_it);
        // Robustness mixin: a round with zero replies (dead or
        // blacked-out peers) retries with exponential backoff.
        if (!late.any_reply && should_retry(late.attempt)) {
          retry_round(late.attempt, [this, job = std::move(late.job),
                                     next = late.attempt + 1]() mutable {
            start_poll_round(std::move(job), next);
          });
          return;
        }
        conclude_round(std::move(late));
      });
}

void LowestScheduler::handle_message(const grid::RmsMessage& msg) {
  switch (msg.kind) {
    case grid::MsgKind::kPollRequest: {
      grid::RmsMessage reply;
      reply.kind = grid::MsgKind::kPollReply;
      reply.token = msg.token;
      reply.a = quote(msg.a);
      reply.b = busy_fraction(cluster());  // RUS
      send_message(msg.from, std::move(reply), costs().sched_poll);
      return;
    }
    case grid::MsgKind::kPollReply: {
      const auto it = pending_.find(msg.token);
      if (it == pending_.end()) return;
      PollRound& round = it->second;
      const double value = msg.a + reply_delay(msg.from);
      const double tie = tie_tolerance();
      if (!round.any_reply || value < round.best_quote - tie ||
          (std::abs(value - round.best_quote) <= tie &&
           msg.b < round.best_rus)) {
        round.any_reply = true;
        round.best_cluster = msg.from;
        round.best_quote = value;
        round.best_rus = msg.b;
      }
      if (--round.awaiting == 0) {
        PollRound done = std::move(round);
        pending_.erase(it);
        conclude_round(std::move(done));
      }
      return;
    }
    default:
      DistributedSchedulerBase::handle_message(msg);
  }
}

double LowestScheduler::quote(double /*demand*/) const {
  return least_load(cluster());
}

bool LowestScheduler::beats_local(const PollRound& round) const {
  // Zhou's LOWEST keeps the job unless a remote cluster reports a
  // strictly less-loaded resource; the local table is scanned only when
  // some peer replied.
  return round.any_reply && round.best_quote < least_load(cluster());
}

void LowestScheduler::conclude_round(PollRound round) {
  if (beats_local(round)) {
    transfer_job(round.best_cluster, std::move(round.job));
  } else {
    schedule_local(std::move(round.job));
  }
}

}  // namespace scal::rms
