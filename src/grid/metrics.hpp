#pragma once
// Collection of the quantities the scalability framework consumes:
//   F(k) — useful work: resource service time of jobs that completed
//          within their benefit deadline U_b,
//   G(k) — RMS overhead: work offered to scheduler/estimator/middleware
//          servers (equals their busy time whenever the RMS keeps up;
//          exceeds it exactly when the RMS is the bottleneck),
//   H(k) — RP overhead: job-control costs plus service time wasted on
//          jobs that missed their deadline or were cut off at the horizon,
// plus the secondary measures of Figures 6 and 7 (throughput, response
// time) and protocol-level counters for tests and diagnostics.

#include <cstddef>
#include <cstdint>

#include "grid/joblog.hpp"
#include "grid/result_schema.hpp"
#include "grid/result_sink.hpp"
#include "sim/time.hpp"
#include "util/stats.hpp"
#include "workload/job.hpp"

namespace scal::obs {
class Histogram;
}

namespace scal::grid {

/// Final outcome of one simulation run.  The stored fields are declared
/// by the result schema (grid/result_schema.hpp); this struct adds the
/// derived terms.
struct SimulationResult {
#define SCAL_RESULT_MEMBER(type, name, init, block, key) type name = init;
#define SCAL_RESULT_NO_MEMBER(expr, block, key)
  SCAL_RESULT_SCHEMA(SCAL_RESULT_MEMBER, SCAL_RESULT_NO_MEMBER)
#undef SCAL_RESULT_MEMBER
#undef SCAL_RESULT_NO_MEMBER

  double G() const noexcept {
    return G_scheduler + G_estimator + G_middleware + G_aggregator;
  }
  double H() const noexcept { return H_control + H_wasted; }
  /// E = F / (F + G + H); 0 when no work was done.
  double efficiency() const noexcept {
    const double total = F + G() + H();
    return total > 0.0 ? F / total : 0.0;
  }

  /// Fraction of tree traffic absorbed by coalescing (the G-reduction
  /// mechanism's direct readout).
  double ctrl_coalescing_ratio() const noexcept {
    return ctrl_updates_in > 0
               ? static_cast<double>(ctrl_updates_coalesced) /
                     static_cast<double>(ctrl_updates_in)
               : 0.0;
  }

  /// Availability-adjusted efficiency E_A = E / A: efficiency per unit of
  /// capacity that actually existed, so churn runs compare to fault-free
  /// runs on equal footing (can exceed E when the RMS exploits the
  /// surviving capacity well).
  double efficiency_avail() const noexcept {
    return availability > 0.0 ? efficiency() / availability : 0.0;
  }
};

class MetricsCollector {
 public:
  /// `mode` is GridConfig::result_mode: how the sink keeps response
  /// times.
  explicit MetricsCollector(ResultMode mode = ResultMode::kFull)
      : sink_(mode) {}

  ResultSink& sink() noexcept { return sink_; }
  const ResultSink& sink() const noexcept { return sink_; }

  /// Record one job-lifecycle event into the sink's log.  The single
  /// mutation path into the log — components call this instead of
  /// writing the log directly, so the sink can bound the storage.
  void record_job_event(workload::JobId job, JobEvent event, sim::Time at,
                        std::uint32_t place = 0) {
    sink_.log().record(job, event, at, place);
  }

  /// Attach (optional) distribution probes; any pointer may be null.
  /// wait/response/slowdown fold online at record_completion; queue
  /// depth and staleness are fed by the scheduler via the observe_*
  /// hooks below.  Purely observational: attaching probes changes no
  /// simulated behavior.
  void attach_probes(obs::Histogram* wait, obs::Histogram* response,
                     obs::Histogram* slowdown, obs::Histogram* queue_depth,
                     obs::Histogram* staleness) noexcept {
    wait_hist_ = wait;
    response_hist_ = response;
    slowdown_hist_ = slowdown;
    queue_depth_hist_ = queue_depth;
    staleness_hist_ = staleness;
  }
  /// Scheduler queue length observed at a scheduling decision point.
  void observe_decision_queue(std::size_t depth);
  /// Sim-time age of the status snapshot a dispatch decision used.
  void observe_staleness(double age);
  void record_arrival(const workload::Job& job);
  /// `service_time` is the time the resource actually spent (exec/rate).
  void record_completion(const workload::Job& job, sim::Time completion,
                         double service_time, double control_cost);
  /// Service time already spent on a job still running at the horizon.
  void record_unfinished(double partial_service_time);
  /// A resource crash killed this job; any service time already invested
  /// is wasted (charged to H) exactly like a horizon cutoff.
  void record_job_killed(double partial_service_time);

  // Protocol counters (incremented by the RMS implementations).
  void count_poll() { ++counts_.polls; }
  void count_transfer() { ++counts_.transfers; }
  void count_auction() { ++counts_.auctions; }
  void count_advert() { ++counts_.adverts; }
  void count_update_received() { ++counts_.updates_received; }
  void count_update_suppressed(std::uint64_t n = 1) {
    counts_.updates_suppressed += n;
  }

  // Fault/robustness counters (see docs/FAULTS.md).
  void count_job_requeued() { ++counts_.jobs_requeued; }
  void count_job_lost() { ++counts_.jobs_lost; }
  void count_round_retry() { ++counts_.round_retries; }
  void count_status_evictions(std::uint64_t n) {
    counts_.status_evictions += n;
  }
  void count_blackout_drop() { ++counts_.blackout_drops; }

  /// The result fields the collector counts (F, H, the job and
  /// protocol counters; GridSystem fills the rest), valid mid-run.
  const SimulationResult& snapshot() const noexcept { return counts_; }

  std::uint64_t response_count() const noexcept {
    return sink_.response_count();
  }
  /// Mean response time — bitwise identical across result modes.
  double response_mean() const noexcept { return sink_.response_mean(); }
  /// 95th-percentile response: exact in full mode, HDR-histogram
  /// approximate in streaming mode.
  double response_p95() const { return sink_.response_p95(); }

 private:
  SimulationResult counts_;
  ResultSink sink_;
  obs::Histogram* wait_hist_ = nullptr;
  obs::Histogram* response_hist_ = nullptr;
  obs::Histogram* slowdown_hist_ = nullptr;
  obs::Histogram* queue_depth_hist_ = nullptr;
  obs::Histogram* staleness_hist_ = nullptr;
};

}  // namespace scal::grid
