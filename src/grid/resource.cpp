#include "grid/resource.hpp"

#include <algorithm>
#include <stdexcept>

namespace scal::grid {

Resource::Resource(sim::Simulator& sim, sim::EntityId id, ClusterId cluster,
                   ResourceIndex index, double service_rate,
                   double job_control_demand, MetricsCollector& metrics,
                   std::function<void(const StatusUpdate&)> report)
    : Entity(sim, id, "resource"), cluster_(cluster), index_(index),
      service_rate_(service_rate), control_time_(job_control_demand / service_rate),
      metrics_(&metrics), report_(std::move(report)) {
  if (!(service_rate_ > 0.0)) {
    throw std::invalid_argument("Resource: service rate must be positive");
  }
}

double Resource::load() const noexcept {
  return static_cast<double>(queue_.size()) + (in_service_ ? 1.0 : 0.0);
}

double Resource::in_service_partial() const noexcept {
  if (!in_service_) return 0.0;
  // Exclude the job-control setup phase: only count execution progress.
  const double elapsed = now() - service_started_ - control_time_;
  return std::max(0.0, std::min(elapsed, current_service_time_));
}

void Resource::accept_job(workload::Job job) {
  if (down_) {
    metrics_->record_job_event(job.id, JobEvent::kKilled, now(), index_);
    metrics_->record_job_killed(0.0);
    if (kill_handler_) {
      std::vector<workload::Job> bounced;
      bounced.push_back(std::move(job));
      kill_handler_(std::move(bounced));
    }
    return;
  }
  credit_skipped_ticks(now());
  queue_.push_back(std::move(job));
  if (!in_service_) begin_service();
  replan();
}

void Resource::crash() {
  if (down_) return;
  credit_skipped_ticks(now());
  down_ = true;
  down_since_ = now();
  replan();
  std::vector<workload::Job> killed;
  if (in_service_) {
    sim().cancel(completion_event_);
    // begin_service charged the whole span up front; give back the part
    // that will never run, and charge the part that did run to H as
    // wasted work (like a horizon cutoff).
    const double total = control_time_ + current_service_time_;
    const double elapsed = now() - service_started_;
    busy_time_ -= std::max(0.0, total - elapsed);
    metrics_->record_job_killed(in_service_partial());
    killed.push_back(std::move(*in_service_));
    in_service_.reset();
  }
  while (!queue_.empty()) {
    metrics_->record_job_killed(0.0);
    killed.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  for (const workload::Job& job : killed) {
    metrics_->record_job_event(job.id, JobEvent::kKilled, now(), index_);
  }
  if (!killed.empty() && kill_handler_) kill_handler_(std::move(killed));
}

void Resource::recover() {
  if (!down_) return;
  credit_skipped_ticks(now());
  down_ = false;
  downtime_ += now() - down_since_;
  recovered_pending_ = true;
  replan();
}

std::optional<workload::Job> Resource::steal_queued_job() {
  if (queue_.empty()) return std::nullopt;
  credit_skipped_ticks(now());
  workload::Job job = std::move(queue_.back());
  queue_.pop_back();
  replan();
  return job;
}

void Resource::begin_service() {
  if (queue_.empty()) {
    in_service_.reset();
    return;
  }
  in_service_ = std::move(queue_.front());
  queue_.pop_front();
  metrics_->record_job_event(in_service_->id, JobEvent::kStart, now(), index_);
  service_started_ = now();
  current_service_time_ = in_service_->exec_time / service_rate_;
  // Job-control (launch/teardown) is RP overhead H, modeled as a setup
  // phase that also occupies the resource.
  const double total = control_time_ + current_service_time_;
  busy_time_ += total;
  completion_event_ = sim().schedule_in(total, [this]() {
    credit_skipped_ticks(now());
    metrics_->record_job_event(in_service_->id, JobEvent::kComplete, now(),
                               index_);
    metrics_->record_completion(*in_service_, now(), current_service_time_,
                                control_time_);
    in_service_.reset();
    begin_service();
    replan();
  });
}

void Resource::start_reporting(double interval, double offset,
                               bool suppression, double max_silence) {
  if (!(interval > 0.0) || offset < 0.0 || max_silence < 0.0) {
    throw std::invalid_argument("Resource: bad reporting parameters");
  }
  report_interval_ = interval;
  suppression_ = suppression;
  max_silence_ = max_silence;
  next_tick_ = now() + offset;
  arm_tick();
}

bool Resource::could_send() const noexcept {
  return !suppression_ || !reported_once_ || recovered_pending_ ||
         load() != last_reported_load_;
}

void Resource::arm_tick() {
  if (down_) return;
  sim::Time at = next_tick_;
  if (!could_send()) {
    if (!(max_silence_ > 0.0)) return;
    // The first tick the heartbeat forces.  One further out than
    // kMaxPlannedTicks is reached through the tick armed there, which
    // fires suppressed and plans again, so a plan stays cheap.
    constexpr int kMaxPlannedTicks = 1024;
    for (int i = 0; i < kMaxPlannedTicks && !(at - last_sent_ >= max_silence_);
         ++i) {
      at += report_interval_;
    }
  }
  tick_at_ = at;
  tick_event_ = sim().schedule_at(at, [this]() { report_now(); });
}

void Resource::replan() {
  if (report_interval_ == 0.0) return;  // not reporting
  if (tick_at_ != kUnarmed) {
    if (tick_at_ == next_tick_ || (!down_ && !could_send())) return;
    sim().cancel(tick_event_);
    tick_at_ = kUnarmed;
  }
  arm_tick();
}

void Resource::credit_skipped_ticks(sim::Time through) {
  if (report_interval_ == 0.0) return;
  // A tick at exactly `through` saw the state before the caller's change.
  std::uint64_t skipped = 0;
  while (next_tick_ <= through && next_tick_ < tick_at_) {
    next_tick_ += report_interval_;
    ++skipped;
  }
  if (skipped == 0) return;
  sim().credit_dispatched(skipped);
  // Fail-silent: a down resource's ticks were never suppressed updates.
  if (!down_) metrics_->count_update_suppressed(skipped);
}

void Resource::report_now() {
  credit_skipped_ticks(now());
  tick_at_ = kUnarmed;
  next_tick_ = now() + report_interval_;
  if (down_) return;  // fail-silent: a dead node sends nothing
  const double current = load();
  const bool heartbeat_due =
      max_silence_ > 0.0 && now() - last_sent_ >= max_silence_;
  const bool unchanged = reported_once_ && current == last_reported_load_ &&
                         !recovered_pending_;
  if (suppression_ && unchanged && !heartbeat_due) {
    metrics_->count_update_suppressed();
  } else {
    StatusUpdate update;
    update.cluster = cluster_;
    update.resource = index_;
    update.load = current;
    update.busy = busy();
    update.recovered = recovered_pending_;
    update.stamp = now();
    last_reported_load_ = current;
    reported_once_ = true;
    recovered_pending_ = false;
    last_sent_ = now();
    report_(update);
  }
  arm_tick();
}

}  // namespace scal::grid
