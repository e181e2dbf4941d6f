#pragma once
// GridSystem: builds and runs one managed-grid simulation.
//
// Construction wires everything together over a grid::Site (the
// topology, cluster layout, middleware node and OSPF-like routing):
// resources/estimators/schedulers/middleware entities, the control
// plane, the fault layer and telemetry.  run() pulls the workload stream,
// executes to the horizon and assembles the SimulationResult whose F, G,
// and H terms feed the scalability framework.  A system runs once; a
// later run is a new system, over the same site when the site fields
// match.

#include <memory>
#include <vector>

#include "ctrl/aggregator.hpp"
#include "ctrl/tree.hpp"
#include "fault/injector.hpp"
#include "grid/cluster.hpp"
#include "grid/config.hpp"
#include "grid/estimator.hpp"
#include "grid/metrics.hpp"
#include "grid/middleware.hpp"
#include "grid/resource.hpp"
#include "grid/scheduler.hpp"
#include "grid/site.hpp"
#include "net/network.hpp"
#include "obs/telemetry.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"
#include "workload/stream.hpp"
#include "workload/trace.hpp"

namespace scal::grid {

/// Creates the policy scheduler for one cluster (or the single central
/// scheduler).  Lives in the rms library (scal::rms::scheduler_factory);
/// injected here so grid does not depend on the policies.
using SchedulerFactory = std::function<std::unique_ptr<SchedulerBase>(
    GridSystem&, sim::EntityId, ClusterId, net::NodeId)>;

class GridSystem {
 public:
  /// Validates config, builds a private site and the full system over
  /// it.  Deterministic in (config, config.seed).
  GridSystem(GridConfig config, SchedulerFactory factory);
  /// Validates config and builds the system over `site`, which must have
  /// been built from a config with the same site fields (throws
  /// std::invalid_argument otherwise).  The run is bit-identical to one
  /// over a private site.  The site must outlive the system and serve
  /// one system at a time.
  GridSystem(Site& site, GridConfig config, SchedulerFactory factory);
  ~GridSystem();

  GridSystem(const GridSystem&) = delete;
  GridSystem& operator=(const GridSystem&) = delete;

  /// Run the simulation to config.horizon and collect the result.
  /// Callable once.
  SimulationResult run();

  // -- Accessors used by the scheduler policies.
  sim::Simulator& simulator() noexcept { return sim_; }
  net::Network& network() noexcept { return *network_; }
  const GridConfig& config() const noexcept { return config_; }
  MetricsCollector& metrics() noexcept { return metrics_; }
  const ClusterLayout& layout() const noexcept { return site_->layout(); }

  std::size_t cluster_count() const noexcept {
    return layout().clusters.size();
  }
  std::size_t resource_count(ClusterId cluster) const {
    return layout().clusters.at(cluster).resource_nodes.size();
  }

  Resource& resource(ClusterId cluster, ResourceIndex index);
  /// The scheduler responsible for `cluster` (the single central
  /// scheduler when the policy is CENTRAL).
  SchedulerBase& scheduler_for(ClusterId cluster);
  Middleware& middleware() noexcept { return *middleware_; }
  net::NodeId middleware_node() const noexcept {
    return site_->middleware_node();
  }

  /// Mean service time of one job at the configured rate — the
  /// schedulers' waiting-time unit.
  double mean_service_time() const noexcept { return mean_service_time_; }

  /// Deliver an RmsMessage to its destination scheduler, paying network
  /// (and optionally middleware) delays.  Used by SchedulerBase.
  void route_message(net::NodeId from_node, RmsMessage msg,
                     bool via_middleware);

  /// Job-lifecycle log (empty unless config.job_log was set).
  const JobLog& job_log() const noexcept { return metrics_.sink().log(); }

  /// Run telemetry handle (null unless config.telemetry was set).
  obs::Telemetry* telemetry() noexcept { return config_.telemetry; }

  /// Ship a job to a resource (network hop), then enqueue it there.
  void ship_job_to_resource(net::NodeId from_node, ClusterId cluster,
                            ResourceIndex index, workload::Job job);

  std::uint64_t seed() const noexcept { return config_.seed; }

 private:
  /// Builds a private site when `site` is null.
  GridSystem(Site* site, GridConfig config, SchedulerFactory factory);

  void schedule_arrivals();
  SimulationResult assemble_result();
  /// Build the aggregation forest (one tree per (cluster, estimator))
  /// under the agg_* tuning knobs; only called when
  /// config.control_plane — otherwise no aggregator entities exist and
  /// the report path compiles down to the legacy point-to-point sends.
  void setup_control_plane();
  /// Ship a finished batch one hop up tree (cluster, estimator) from
  /// member `member` (to its parent aggregator, or to the estimator
  /// when the member is a root child).
  void forward_up(ClusterId cluster, std::size_t estimator,
                  std::uint32_t member, std::vector<StatusUpdate> updates);
  /// Wire the fault layer: injector hooks, net message faults, kill
  /// handlers, and the schedulers' robustness mixin.  Only called when
  /// config.faults.any() — a fault-free run constructs none of it.
  void setup_faults();

  /// Count the report ticks quiet resources skipped through now as
  /// dispatched (and suppressed) before anything reads those counters.
  void credit_report_ticks();

  // -- Telemetry plumbing (all no-ops when config_.telemetry is null).
  void setup_telemetry();
  void probe_tick();
  /// Fill the state fields of a probe sample (busy fractions, backlogs,
  /// windowed utilizations) at the current sim time.
  void fill_probe_state(obs::ProbeSample& sample);
  /// Current cumulative G across all RMS servers (valid mid-run).
  double current_overhead_work() const;
  void finish_telemetry(const SimulationResult& result);

  /// Deliver one pulled arrival into the system: metrics, optional job
  /// trace, and the CENTRAL gateway forward.
  void deliver_arrival(const workload::Job& job);
  /// Pull the next arrival into pending_ and schedule it (chained: each
  /// arrival event schedules its successor, so at most one job is ever
  /// pending in the event queue).
  void schedule_next_arrival();

  GridConfig config_;
  std::unique_ptr<Site> owned_site_;  ///< null when the site is lent
  Site* site_;
  sim::Simulator sim_;
  /// Owns the result sink (response times and job log), built for
  /// config.result_mode.
  MetricsCollector metrics_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<Middleware> middleware_;
  // resources_[cluster][index]
  std::vector<std::vector<std::unique_ptr<Resource>>> resources_;
  std::vector<std::vector<std::unique_ptr<Estimator>>> estimators_;
  std::vector<std::unique_ptr<SchedulerBase>> schedulers_;
  /// One aggregation tree per (cluster, estimator) pair; empty unless
  /// config.control_plane.  Aggregators live in tree member order.
  struct ControlTree {
    ctrl::AggregationTree tree;
    std::vector<std::unique_ptr<ctrl::Aggregator>> aggs;  ///< member order
    /// resource index -> tree member index (the resource's own leaf).
    std::vector<std::uint32_t> member_of_resource;
  };
  std::vector<std::vector<ControlTree>> ctrl_trees_;  ///< [cluster][estimator]
  bool ctrl_active_ = false;
  std::unique_ptr<fault::FaultInjector> injector_;
  double mean_service_time_ = 1.0;
  bool ran_ = false;
  sim::EntityId next_entity_id_ = 0;
  bool workload_from_cache_ = false;
  // The one arrival path: jobs are pulled one at a time from this source
  // (in full mode a replay of the vector the process-wide ArrivalCache
  // holds) into pending_, so one arrival event is pending at a time; the
  // accumulator folds the workload stats in stream order.
  std::unique_ptr<workload::WorkloadSource> arrivals_;
  workload::Job pending_;
  workload::TraceStatsAccumulator stream_stats_;

  // Telemetry state (inert when config_.telemetry is null).
  obs::PhaseProfiler* profiler_ = nullptr;  ///< cached from the handle
  obs::PhaseId run_phase_ = 0;
  obs::PhaseId workload_phase_ = 0;
  obs::TraceRecorder* trace_ = nullptr;  ///< cached from the handle
  obs::TraceTid msg_tid_ = 0;
  obs::TraceTid jobs_tid_ = 0;
  // Previous probe window, for busy-time-delta utilizations.
  double probe_prev_time_ = 0.0;
  double probe_prev_sched_busy_ = 0.0;
  double probe_prev_est_busy_ = 0.0;
  double probe_prev_mw_busy_ = 0.0;
};

}  // namespace scal::grid
