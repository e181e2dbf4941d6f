#include "grid/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "grid/system.hpp"
#include "util/log.hpp"

namespace scal::grid {

const char* to_string(MsgKind kind) {
  switch (kind) {
    case MsgKind::kPollRequest: return "PollRequest";
    case MsgKind::kPollReply: return "PollReply";
    case MsgKind::kJobTransfer: return "JobTransfer";
    case MsgKind::kReservation: return "Reservation";
    case MsgKind::kReserveProbe: return "ReserveProbe";
    case MsgKind::kReserveReply: return "ReserveReply";
    case MsgKind::kAuctionInvite: return "AuctionInvite";
    case MsgKind::kAuctionBid: return "AuctionBid";
    case MsgKind::kAuctionAward: return "AuctionAward";
    case MsgKind::kVolunteer: return "Volunteer";
    case MsgKind::kDemandRequest: return "DemandRequest";
    case MsgKind::kDemandReply: return "DemandReply";
    case MsgKind::kNoJob: return "NoJob";
  }
  return "?";
}

namespace {

/// Receive-side processing cost of a message, from the cost model.
double receive_cost(const CostModel& costs, MsgKind kind) {
  switch (kind) {
    case MsgKind::kPollRequest:
    case MsgKind::kPollReply:
    case MsgKind::kReserveProbe:
    case MsgKind::kReserveReply:
    case MsgKind::kDemandRequest:
    case MsgKind::kDemandReply:
    case MsgKind::kNoJob:
      return costs.sched_poll;
    case MsgKind::kJobTransfer:
    case MsgKind::kAuctionAward:
      return costs.sched_transfer;
    case MsgKind::kReservation:
    case MsgKind::kVolunteer:
    case MsgKind::kAuctionInvite:
      return costs.sched_advert;
    case MsgKind::kAuctionBid:
      return costs.sched_bid;
  }
  return 0.0;
}

}  // namespace

SchedulerBase::SchedulerBase(GridSystem& system, sim::EntityId id,
                             ClusterId cluster, net::NodeId node)
    : Server(system.simulator(), id,
             "scheduler/" + std::to_string(cluster)),
      system_(&system), cluster_(cluster), node_(node),
      rng_(system.seed(), "scheduler/" + std::to_string(cluster)) {}

void SchedulerBase::init_tables(const std::vector<ClusterId>& clusters) {
  for (const ClusterId c : clusters) {
    // Optimistic zero-load start: schedulers know their membership from
    // deployment; the first status batches correct any drift.
    ClusterTable table{c, {}};
    table.views.assign(system_->resource_count(c), ResourceView{});
    candidate_count_ += table.views.size();
    const auto pos = std::lower_bound(
        tables_.begin(), tables_.end(), c,
        [](const ClusterTable& t, ClusterId id) { return t.cluster < id; });
    tables_.insert(pos, std::move(table));
  }
}

std::vector<ResourceView>* SchedulerBase::find_table(ClusterId cluster) {
  const auto it = std::lower_bound(
      tables_.begin(), tables_.end(), cluster,
      [](const ClusterTable& t, ClusterId id) { return t.cluster < id; });
  if (it == tables_.end() || it->cluster != cluster) return nullptr;
  return &it->views;
}

const std::vector<ResourceView>* SchedulerBase::find_table(
    ClusterId cluster) const {
  return const_cast<SchedulerBase*>(this)->find_table(cluster);
}

const std::vector<ResourceView>& SchedulerBase::table(
    ClusterId cluster) const {
  const std::vector<ResourceView>* t = find_table(cluster);
  if (t == nullptr) {
    throw std::out_of_range("SchedulerBase: cluster not tracked");
  }
  return *t;
}

bool SchedulerBase::tracks(ClusterId cluster) const {
  return find_table(cluster) != nullptr;
}

ResourceIndex SchedulerBase::least_loaded(ClusterId cluster) const {
  const auto& t = table(cluster);
  if (staleness_window_ > 0.0) {
    // Robustness: entries past the staleness window are treated as down
    // and evicted from the scan.  If everything is stale (a blackout
    // just ended, say) fall through to the raw scan — the job must land
    // somewhere.
    ResourceIndex fresh = kNoResource;
    std::uint64_t evicted = 0;
    for (ResourceIndex r = 0; r < t.size(); ++r) {
      if (!view_usable(t[r])) {
        ++evicted;
        continue;
      }
      if (fresh == kNoResource || t[r].load < t[fresh].load) fresh = r;
    }
    if (evicted > 0) system_->metrics().count_status_evictions(evicted);
    if (fresh != kNoResource) return fresh;
  }
  ResourceIndex best = 0;
  for (ResourceIndex r = 1; r < t.size(); ++r) {
    if (t[r].load < t[best].load) best = r;
  }
  return best;
}

double SchedulerBase::least_load(ClusterId cluster) const {
  return table(cluster)[least_loaded(cluster)].load;
}

double SchedulerBase::busy_fraction(ClusterId cluster) const {
  const auto& t = table(cluster);
  if (t.empty()) return 0.0;
  std::size_t busy = 0;
  for (const ResourceView& v : t) {
    // Robustness: a stale entry is presumed down, i.e. not usable
    // capacity, so it counts toward the busy fraction.
    if (v.load > 0.5 || !view_usable(v)) ++busy;
  }
  return static_cast<double>(busy) / static_cast<double>(t.size());
}

ResourceIndex SchedulerBase::most_backlogged(ClusterId cluster) const {
  const auto& t = table(cluster);
  ResourceIndex best = kNoResource;
  double best_load = 1.5;  // needs at least one queued job (load >= 2)
  for (ResourceIndex r = 0; r < t.size(); ++r) {
    // Robustness: never try to steal from a presumed-down resource.
    if (!view_usable(t[r])) continue;
    if (t[r].load > best_load) {
      best_load = t[r].load;
      best = r;
    }
  }
  return best;
}

void SchedulerBase::deliver_job(workload::Job job) {
  const CostModel& costs = system_->config().costs;
  // Queue-depth probe: sample this server's backlog at the decision
  // point, before the new work item joins it.
  system_->metrics().observe_decision_queue(queue_length());
  // A decision scans every resource this scheduler tracks: the local
  // cluster for the distributed policies, the whole pool for CENTRAL —
  // that asymmetry is what makes CENTRAL's per-decision cost grow with
  // system size in Case 1.
  const double cost = costs.sched_decision_base +
                      costs.sched_decision_per_candidate *
                          static_cast<double>(candidate_count_);
  submit(cost, [this, job = std::move(job)]() mutable {
    obs::PhaseProfiler::Scope scope(profiler_, decision_phase_);
    handle_job(std::move(job));
  });
}

void SchedulerBase::enable_robustness(double staleness_window,
                                      std::uint32_t requeue_budget,
                                      std::uint32_t retry_budget,
                                      double retry_backoff_base) {
  if (!(staleness_window > 0.0) || !(retry_backoff_base > 0.0)) {
    throw std::invalid_argument(
        "SchedulerBase: robustness window/backoff must be positive");
  }
  staleness_window_ = staleness_window;
  requeue_budget_ = requeue_budget;
  retry_budget_ = retry_budget;
  retry_backoff_base_ = retry_backoff_base;
}

void SchedulerBase::retry_round(std::uint32_t attempt,
                                sim::EventFn restart) {
  system_->metrics().count_round_retry();
  system_->simulator().schedule_in(
      retry_backoff_base_ * static_cast<double>(1u << attempt),
      std::move(restart));
}

void SchedulerBase::deliver_requeue(workload::Job job) {
  job.attempts += 1;
  if (job.attempts > requeue_budget_) {
    // Budget exhausted: the job is lost.  It stays in the books as
    // unfinished (arrived == completed + unfinished still holds); the
    // dedicated counter attributes the loss to the fault layer.
    system_->metrics().count_job_lost();
    return;
  }
  system_->metrics().count_job_requeued();
  deliver_job(std::move(job));
}

void SchedulerBase::deliver_batch(StatusBatch batch) {
  if (blackout_) {
    system_->metrics().count_blackout_drop();
    return;
  }
  const CostModel& costs = system_->config().costs;
  const double cost =
      costs.sched_batch_base +
      costs.sched_per_update * static_cast<double>(batch.updates.size());
  submit(cost, [this, batch = std::move(batch)]() {
    obs::PhaseProfiler::Scope scope(profiler_, batch_phase_);
    fold_batch(batch);
    after_batch(batch);
  });
}

void SchedulerBase::fold_batch(const StatusBatch& batch) {
  std::vector<ResourceView>* found = find_table(batch.cluster);
  if (found == nullptr) return;  // not interested in this cluster
  auto& t = *found;
  for (const StatusUpdate& u : batch.updates) {
    system_->metrics().count_update_received();
    if (u.resource >= t.size()) continue;
    // Status can be stale relative to optimistic dispatch bumps; newer
    // stamps always win.
    if (u.stamp >= t[u.resource].stamp) {
      t[u.resource].load = u.load;
      t[u.resource].stamp = u.stamp;
    }
    // Idle-event triggers are per estimator stream (the estimator sets
    // the flag against its own last view), so replicated estimators
    // each fire their own trigger.
    if (wants_idle_events() && batch.cluster == cluster_ &&
        u.idle_transition) {
      const double idle_cost = system_->config().costs.sched_idle_event;
      submit(idle_cost, [this, r = u.resource, e = batch.estimator]() {
        handle_idle_resource(r, e);
      });
    }
  }
}

void SchedulerBase::deliver_message(RmsMessage msg) {
  // A blacked-out scheduler's control plane is down, but job-carrying
  // transfers must not vanish (conservation): they queue as normal and
  // are decided once the processor works through its backlog.
  if (blackout_ && !msg.job.has_value()) {
    system_->metrics().count_blackout_drop();
    return;
  }
  const double cost = receive_cost(system_->config().costs, msg.kind);
  submit(cost, [this, msg = std::move(msg)]() { handle_message(msg); });
}

void SchedulerBase::handle_message(const RmsMessage& msg) {
  SCAL_DEBUG("scheduler " << cluster_ << " ignoring " << to_string(msg.kind)
                          << " from " << msg.from);
}

void SchedulerBase::dispatch(ClusterId cluster, ResourceIndex r,
                             workload::Job job) {
  std::vector<ResourceView>* t = find_table(cluster);
  if (t == nullptr || r >= t->size()) {
    throw std::out_of_range("SchedulerBase::dispatch: bad target");
  }
  // Staleness probe: sim-time age of the status snapshot this placement
  // decision acted on (before the optimistic bump refreshes nothing —
  // bumps adjust load, not the stamp).
  system_->metrics().observe_staleness(now() - (*t)[r].stamp);
  // Optimistic bump so back-to-back decisions fan out instead of herding
  // onto the same (momentarily) least-loaded resource.
  (*t)[r].load += 1.0;
  system_->ship_job_to_resource(node_, cluster, r, std::move(job));
}

void SchedulerBase::send_message(ClusterId dst, RmsMessage msg,
                                 double send_cost) {
  msg.from = cluster_;
  msg.to = dst;
  msg.stamp = now();
  submit(send_cost, [this, msg = std::move(msg)]() {
    system_->route_message(node_, msg, uses_middleware());
  });
}

std::vector<ClusterId> SchedulerBase::random_peers(std::size_t count) {
  const std::size_t clusters = system_->cluster_count();
  if (clusters <= 1) return {};
  const std::size_t want = std::min(count, clusters - 1);
  // Sample from [0, clusters-2] and skip over self.
  auto picks = rng_.sample_without_replacement(clusters - 1, want);
  std::vector<ClusterId> peers;
  peers.reserve(want);
  for (const std::size_t p : picks) {
    const auto peer = static_cast<ClusterId>(p);
    peers.push_back(peer >= cluster_ ? peer + 1 : peer);
  }
  return peers;
}

double SchedulerBase::estimate_awt(ClusterId cluster) const {
  return least_load(cluster) * system_->mean_service_time();
}

double SchedulerBase::estimate_ert(double exec_demand) const {
  return exec_demand / system_->config().service_rate;
}

double SchedulerBase::predict_transfer_delay(ClusterId dst) const {
  const auto& peer = system_->layout().clusters.at(dst);
  return system_->network().predict_delay(node_, peer.scheduler_node,
                                          system_->config().costs.size_job);
}

}  // namespace scal::grid
