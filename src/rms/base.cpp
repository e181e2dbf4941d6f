#include "rms/base.hpp"

#include <algorithm>

namespace scal::rms {

void DistributedSchedulerBase::schedule_local(workload::Job job) {
  const grid::ResourceIndex r = least_loaded(cluster());
  dispatch(cluster(), r, std::move(job));
}

void DistributedSchedulerBase::transfer_job(grid::ClusterId dst,
                                            workload::Job job) {
  system().metrics().count_transfer();
  grid::RmsMessage msg;
  msg.kind = grid::MsgKind::kJobTransfer;
  msg.token = job.id;
  msg.job = std::move(job);
  send_message(dst, std::move(msg), costs().sched_transfer);
}

void DistributedSchedulerBase::handle_message(const grid::RmsMessage& msg) {
  if (msg.kind == grid::MsgKind::kJobTransfer && msg.job) {
    schedule_local(*msg.job);
    return;
  }
  SchedulerBase::handle_message(msg);
}

void DistributedSchedulerBase::advertise(grid::MsgKind kind) {
  for (const grid::ClusterId peer : random_peers(tuning().neighborhood_size)) {
    system().metrics().count_advert();
    grid::RmsMessage msg;
    msg.kind = kind;
    send_message(peer, std::move(msg), costs().sched_advert);
  }
}

void DistributedSchedulerBase::start_volunteering() {
  // Desynchronize the volunteering rounds across schedulers.
  const double offset = rng().uniform(0.0, tuning().volunteer_interval);
  system().simulator().schedule_in(offset, [this]() { volunteer_tick(); });
}

void DistributedSchedulerBase::volunteer_tick() {
  // "Periodically, a scheduler checks RUS for the resources in its
  // cluster" — an idle resource (RUS below delta) triggers volunteering.
  // Under the robustness mixin only fresh views count: a crashed
  // resource's frozen "idle" entry must not keep attracting work.
  const auto& t = table(cluster());
  const bool has_idle = std::any_of(
      t.begin(), t.end(), [this](const grid::ResourceView& v) {
        return view_usable(v) && v.load < protocol().delta;
      });
  if (has_idle) advertise(grid::MsgKind::kVolunteer);
  system().simulator().schedule_in(tuning().volunteer_interval,
                                   [this]() { volunteer_tick(); });
}

void DistributedSchedulerBase::request_demand(grid::ClusterId volunteer,
                                              workload::Job job) {
  const std::uint64_t token = next_token();
  grid::RmsMessage demand;
  demand.kind = grid::MsgKind::kDemandRequest;
  demand.token = token;
  demand.a = job.exec_time;  // the job's resource demands
  negotiating_.emplace(token, std::move(job));
  // Watchdog: a lost request or reply must never strand the job.
  system().simulator().schedule_in(protocol().reply_timeout, [this, token]() {
    const auto it = negotiating_.find(token);
    if (it == negotiating_.end()) return;
    workload::Job stranded = std::move(it->second);
    negotiating_.erase(it);
    schedule_local(std::move(stranded));
  });
  system().metrics().count_poll();
  send_message(volunteer, std::move(demand), costs().sched_poll);
}

void DistributedSchedulerBase::reply_demand(const grid::RmsMessage& msg) {
  grid::RmsMessage reply;
  reply.kind = grid::MsgKind::kDemandReply;
  reply.token = msg.token;
  reply.a = estimate_awt(cluster()) + estimate_ert(msg.a);
  reply.b = busy_fraction(cluster());
  send_message(msg.from, std::move(reply), costs().sched_poll);
}

bool DistributedSchedulerBase::decide_demand_reply(
    const grid::RmsMessage& msg) {
  const auto it = negotiating_.find(msg.token);
  if (it == negotiating_.end()) return false;
  workload::Job job = std::move(it->second);
  negotiating_.erase(it);
  const double local_att =
      estimate_awt(cluster()) + estimate_ert(job.exec_time);
  const double remote_att = msg.a + predict_transfer_delay(msg.from);
  if (remote_att < local_att) {
    transfer_job(msg.from, std::move(job));
  } else {
    schedule_local(std::move(job));
  }
  return true;
}

}  // namespace scal::rms
