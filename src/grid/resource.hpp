#pragma once
// A grid resource: one node of the resource pool.  Executes dispatched
// jobs FCFS at a configurable service rate, reports its load to its
// status collector (estimator) every update-interval tick — with
// change-suppression, as all of the paper's periodic-update schemes use —
// and supports the queue-steal operation AUCTION's pull protocol needs.
//
// A quiet resource's ticks are counted, not simulated.  After a tick the
// resource arms the next one only if it could send: suppression is off,
// nothing was sent yet, a recovery is pending, or load() moved since the
// last report; with a heartbeat (max_silence > 0) it arms the first tick
// the heartbeat forces instead, and while down it arms nothing.  Each
// input change (accept, completion, steal, crash, recover) wakes it:
// the skipped ticks are replayed with the same additions the timer would
// have made and credited as dispatched events and, unless it was down,
// as suppressed updates, then the first tick still ahead is armed.

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "grid/messages.hpp"
#include "grid/metrics.hpp"
#include "sim/entity.hpp"
#include "util/rng.hpp"

namespace scal::grid {

class Resource : public sim::Entity {
 public:
  /// `report` ships a StatusUpdate toward this resource's estimator
  /// (the system wires the network hop in).  `job_control_demand` is
  /// the launch/teardown work per job in demand units; its wall-clock
  /// cost is job_control_demand / service_rate.
  Resource(sim::Simulator& sim, sim::EntityId id, ClusterId cluster,
           ResourceIndex index, double service_rate,
           double job_control_demand, MetricsCollector& metrics,
           std::function<void(const StatusUpdate&)> report);

  /// Begin the periodic reporting cycle.  `interval` is the tuned
  /// update interval tau; `offset` desynchronizes resources.
  /// `max_silence > 0` bounds suppression: a report is forced whenever
  /// that much time passed since the last one actually sent, so the
  /// robustness mixin's staleness eviction never evicts a live resource
  /// that is merely quiet.  0 (the default) keeps pure suppression.
  void start_reporting(double interval, double offset, bool suppression,
                       double max_silence = 0.0);

  /// A dispatched job arrives (network delay already paid).  Arrival at
  /// a down resource kills the job (the dispatcher's view was stale);
  /// it is routed to the kill handler like a crash casualty.
  void accept_job(workload::Job job);

  /// Fault injection: destroy queued and in-service work, un-charge the
  /// unserved remainder of the in-service span, and go down.  Killed
  /// jobs flow to the kill handler (wired by GridSystem) for requeue.
  void crash();
  /// Leave the down state and re-arm the reporting timer.  The next
  /// periodic report is forced (bypasses suppression) and flagged
  /// StatusUpdate::recovered.
  void recover();
  bool down() const noexcept { return down_; }
  /// Handler for jobs destroyed by crash(); unset means they just vanish.
  void set_kill_handler(std::function<void(std::vector<workload::Job>)> h) {
    kill_handler_ = std::move(h);
  }
  /// Cumulative down-state time as of `at` (open interval included).
  double downtime_through(double at) const noexcept {
    return downtime_ + (down_ ? std::max(0.0, at - down_since_) : 0.0);
  }

  /// AUCTION support: remove and return the most recently queued job
  /// (never the one in service); nullopt if the queue is empty.
  std::optional<workload::Job> steal_queued_job();

  /// Credit the report ticks skipped at or before `through` (see the
  /// header comment).  Each input change credits through now first; the
  /// system calls it before reading the counters mid-run and at the
  /// horizon.
  void credit_skipped_ticks(sim::Time through);

  /// Jobs in system (queued + in service).
  double load() const noexcept;
  bool busy() const noexcept { return in_service_.has_value(); }
  std::size_t queue_length() const noexcept { return queue_.size(); }

  /// Service time already invested in the in-service job as of `now`;
  /// used by the horizon sweep to charge partial work as waste.
  double in_service_partial() const noexcept;

  ClusterId cluster() const noexcept { return cluster_; }
  ResourceIndex index() const noexcept { return index_; }
  double busy_time() const noexcept { return busy_time_; }

  double service_rate() const noexcept { return service_rate_; }

 private:
  void begin_service();
  void report_now();
  /// Whether a tick with the current state would send (heartbeat aside).
  bool could_send() const noexcept;
  /// Arm the first tick from next_tick_ that could send; none while down
  /// or while quiet without a heartbeat.
  void arm_tick();
  /// Call after an input of report_now changed (and credit the skipped
  /// ticks before it changes): a heartbeat armed past the next tick is
  /// replaced when the resource could now send earlier, or went down.
  void replan();

  ClusterId cluster_;
  ResourceIndex index_;
  double service_rate_;
  double control_time_;  ///< job_control_demand / service_rate
  MetricsCollector* metrics_;
  std::function<void(const StatusUpdate&)> report_;

  std::deque<workload::Job> queue_;
  std::optional<workload::Job> in_service_;
  sim::Time service_started_ = 0.0;
  double current_service_time_ = 0.0;
  sim::EventId completion_event_ = 0;

  double report_interval_ = 0.0;
  bool suppression_ = true;
  bool reported_once_ = false;
  double last_reported_load_ = -1.0;
  double max_silence_ = 0.0;
  double last_sent_ = 0.0;
  /// The earliest recurrence tick neither fired nor credited.
  sim::Time next_tick_ = 0.0;
  /// The armed tick and its time (kUnarmed: none, the resource is
  /// dormant); the ticks from next_tick_ up to it are skipped.
  static constexpr sim::Time kUnarmed =
      std::numeric_limits<sim::Time>::infinity();
  sim::EventId tick_event_ = 0;
  sim::Time tick_at_ = kUnarmed;

  bool down_ = false;
  bool recovered_pending_ = false;
  double down_since_ = 0.0;
  double downtime_ = 0.0;
  std::function<void(std::vector<workload::Job>)> kill_handler_;

  double busy_time_ = 0.0;
};

}  // namespace scal::grid
