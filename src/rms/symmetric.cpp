#include "rms/symmetric.hpp"

namespace scal::rms {

void SymmetricScheduler::handle_idle_resource(grid::ResourceIndex /*resource*/,
                                              std::uint32_t estimator) {
  // The event-driven half of Sy-I's PUSH side: an idle transition in the
  // status stream triggers an advertisement.  Pacing is per estimator
  // trigger stream, so a finer-grained estimator layer (Case 3) produces
  // proportionally more advertisement traffic.
  const auto last = last_event_broadcast_.find(estimator);
  if (last != last_event_broadcast_.end() &&
      now() - last->second < 0.10 * tuning().volunteer_interval) {
    return;
  }
  last_event_broadcast_[estimator] = now();
  advertise(grid::MsgKind::kVolunteer);
}

const grid::ClusterId* SymmetricScheduler::freshest_advert() {
  const double ttl =
      protocol().advert_ttl_factor * tuning().volunteer_interval;
  const grid::ClusterId* best = nullptr;
  sim::Time best_stamp = -1e300;
  for (auto& [peer, stamp] : adverts_) {
    if (now() - stamp <= ttl && stamp > best_stamp) {
      best_stamp = stamp;
      freshest_cache_ = peer;
      best = &freshest_cache_;
    }
  }
  return best;
}

void SymmetricScheduler::handle_job(workload::Job job) {
  if (job.job_class == workload::JobClass::kLocal) {
    schedule_local(std::move(job));
    return;
  }
  if (const grid::ClusterId* advertiser = freshest_advert()) {
    // R-I style handshake with the advertiser.
    const grid::ClusterId dst = *advertiser;
    adverts_.erase(dst);  // consume the advertisement
    request_demand(dst, std::move(job));
    return;
  }
  // No usable advertisement: sender-initiated fallback.
  start_poll_round(std::move(job));
}

void SymmetricScheduler::handle_message(const grid::RmsMessage& msg) {
  switch (msg.kind) {
    case grid::MsgKind::kVolunteer:
      adverts_[msg.from] = msg.stamp;
      return;
    case grid::MsgKind::kDemandRequest:
      reply_demand(msg);
      return;
    case grid::MsgKind::kDemandReply:
      decide_demand_reply(msg);
      return;
    default:
      SenderInitiatedScheduler::handle_message(msg);
  }
}

}  // namespace scal::rms
