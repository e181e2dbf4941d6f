#include "rms/reserve.hpp"

#include <algorithm>

namespace scal::rms {

void ReserveScheduler::after_batch(const grid::StatusBatch& /*batch*/) {
  maybe_advertise();
}

void ReserveScheduler::maybe_advertise() {
  if (busy_fraction(cluster()) >= protocol().t_l) return;
  // Pace advertisements by the volunteering interval so a lightly loaded
  // cluster does not spam reservations on every status batch.
  if (now() - last_advert_ < tuning().volunteer_interval) return;
  last_advert_ = now();
  advertise(grid::MsgKind::kReservation);
}

ReserveScheduler::Reservation* ReserveScheduler::freshest_reservation() {
  if (reservations_.empty()) return nullptr;
  auto it = std::max_element(reservations_.begin(), reservations_.end(),
                             [](const Reservation& a, const Reservation& b) {
                               return a.stamp < b.stamp;
                             });
  return &*it;
}

void ReserveScheduler::handle_job(workload::Job job) {
  if (job.job_class == workload::JobClass::kLocal) {
    schedule_local(std::move(job));
    return;
  }
  probe_reservation(std::move(job), 0);
}

void ReserveScheduler::probe_reservation(workload::Job job,
                                         std::uint32_t attempt) {
  Reservation* res = freshest_reservation();
  if (busy_fraction(cluster()) > protocol().t_l && res != nullptr) {
    const std::uint64_t token = next_token();
    probing_.emplace(token, Probe{std::move(job), attempt});
    system().metrics().count_poll();
    grid::RmsMessage probe;
    probe.kind = grid::MsgKind::kReserveProbe;
    probe.token = token;
    send_message(res->from, std::move(probe), costs().sched_poll);
    // Watchdog: a lost probe or reply falls back to local placement;
    // under the robustness mixin it first re-probes (the freshest
    // reservation is re-picked, so a dead reserver is routed around).
    system().simulator().schedule_in(
        protocol().reply_timeout, [this, token]() {
          const auto it = probing_.find(token);
          if (it == probing_.end()) return;
          Probe stranded = std::move(it->second);
          probing_.erase(it);
          if (should_retry(stranded.attempt)) {
            retry_round(stranded.attempt,
                        [this, job = std::move(stranded.job),
                         next = stranded.attempt + 1]() mutable {
                          probe_reservation(std::move(job), next);
                        });
            return;
          }
          schedule_local(std::move(stranded.job));
        });
    return;
  }
  schedule_local(std::move(job));
}

void ReserveScheduler::handle_message(const grid::RmsMessage& msg) {
  switch (msg.kind) {
    case grid::MsgKind::kReservation: {
      // Refresh an existing reservation from this peer or add a new one.
      for (Reservation& r : reservations_) {
        if (r.from == msg.from) {
          r.stamp = msg.stamp;
          return;
        }
      }
      reservations_.push_back(Reservation{msg.from, msg.stamp});
      return;
    }
    case grid::MsgKind::kReserveProbe: {
      grid::RmsMessage reply;
      reply.kind = grid::MsgKind::kReserveReply;
      reply.token = msg.token;
      reply.a = busy_fraction(cluster()) < protocol().t_l ? 1.0 : 0.0;
      send_message(msg.from, std::move(reply), costs().sched_poll);
      return;
    }
    case grid::MsgKind::kReserveReply: {
      const auto it = probing_.find(msg.token);
      if (it == probing_.end()) return;
      workload::Job job = std::move(it->second.job);
      probing_.erase(it);
      if (msg.a > 0.5) {
        transfer_job(msg.from, std::move(job));
      } else {
        // The reserver filled up: cancel its reservation, run locally.
        std::erase_if(reservations_, [&](const Reservation& r) {
          return r.from == msg.from;
        });
        schedule_local(std::move(job));
      }
      return;
    }
    default:
      DistributedSchedulerBase::handle_message(msg);
  }
}

}  // namespace scal::rms
