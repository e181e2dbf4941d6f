#pragma once
// Configuration of a managed-grid simulation: topology sizing, cluster
// layout, the RMS policy under test, the paper's common constants
// (Table 1), the cost model that defines what one unit of RMS work is,
// and the tunable "scaling enablers" (Tables 2-5).

#include <cstdint>
#include <string>

#include "fault/plan.hpp"
#include "grid/result_mode.hpp"
#include "net/topology.hpp"
#include "workload/generator.hpp"
#include "workload/source.hpp"

namespace scal::obs {
class Telemetry;
}

namespace scal::grid {

/// The seven RMS models evaluated in the paper (Section 3.3), plus the
/// two-level hierarchical extension (the paper's future-work item (a);
/// not part of the reproduction sweeps).
enum class RmsKind {
  kCentral,
  kLowest,
  kReserve,
  kAuction,
  kSenderInitiated,    // S-I
  kReceiverInitiated,  // R-I
  kSymmetric,          // Sy-I
  kHierarchical,       // HIER (extension)
  kRandom,             // RANDOM (Zhou'88 no-information baseline)
};

std::string to_string(RmsKind kind);
RmsKind rms_from_string(const std::string& name);

/// All seven kinds in paper order, for sweeps.
inline constexpr RmsKind kAllRmsKinds[] = {
    RmsKind::kCentral,          RmsKind::kLowest,
    RmsKind::kReserve,          RmsKind::kAuction,
    RmsKind::kSenderInitiated,  RmsKind::kReceiverInitiated,
    RmsKind::kSymmetric,
};

/// The most periods of a periodic timer (the status-update, volunteer
/// and probe intervals) a run's horizon may hold: every period costs at
/// least one event or one replayed tick, so a shorter interval stalls
/// the clock.
inline constexpr double kMaxPeriodsPerHorizon = 16777216.0;  // 2^24

/// Scaling enablers (the y(k) knobs the simulated-annealing tuner adjusts,
/// paper Tables 2-5).
struct Tuning {
  /// Status-update interval tau (time units) between resource reports.
  double update_interval = 20.0;
  /// Neighborhood set size L_p: remote schedulers probed / polled /
  /// advertised to.  Case 4 turns this into the scaling variable.
  std::uint32_t neighborhood_size = 3;
  /// Network link delay multiplier (provisioning of control links).
  double link_delay_scale = 1.0;
  /// Interval between receiver-initiated volunteering rounds (R-I, Sy-I;
  /// enabler in Case 4).
  double volunteer_interval = 60.0;

  // Control-plane aggregation enablers (docs/CONTROL_PLANE.md; only
  // meaningful when GridConfig::control_plane is on).  The degenerate
  // triple — fanout 1, batch 1, flush 0 — bypasses the tree entirely
  // and reproduces the point-to-point status path byte-for-byte.
  /// Fan-out degree of the per-(cluster, estimator) aggregation tree.
  std::uint32_t agg_fanout = 1;
  /// Updates buffered per aggregator before a batch is forced out.
  std::uint32_t agg_batch = 1;
  /// Max hold time (time units) before a partial batch is flushed;
  /// <= 0 forwards immediately after processing.
  double agg_flush = 0.0;

  /// True when the aggregation knobs are at the bypass point.
  bool aggregation_degenerate() const noexcept {
    return agg_fanout <= 1 && agg_batch <= 1 && agg_flush <= 0.0;
  }
};

/// One scaling enabler: a Tuning field the tuner may adjust.  kEnablers
/// is the one list of them; the tuner's search space, the Tables 2-5
/// rows, config_digest, the manifest's tuning block and the INI's
/// tuning.* keys all iterate it, so a new enabler is one row.
struct Enabler {
  /// The Space variable, the manifest key and the INI `tuning.` suffix.
  const char* name = "";
  /// The row label in the paper's Tables 2-5.
  const char* row = "";
  /// The row's position in those tables, which list the volunteering
  /// interval before link delay; the search space has it after.
  int paper_row = 0;
  /// The field: `real` for a continuous enabler, `count` for an integer
  /// one; the other stays null.
  double Tuning::*real = nullptr;
  std::uint32_t Tuning::*count = nullptr;
  /// Tuner bounds; a log-scale enabler moves multiplicatively.
  double lo = 0.0;
  double hi = 0.0;
  bool log_scale = false;
  /// Meaningful only with GridConfig::control_plane: the manifest shows
  /// it only then, and the INI has no key for it.
  bool control_plane = false;

  bool integer() const noexcept { return count != nullptr; }
  double get(const Tuning& t) const noexcept {
    return integer() ? static_cast<double>(t.*count) : t.*real;
  }
  void set(Tuning& t, double value) const noexcept {
    if (integer()) {
      t.*count = static_cast<std::uint32_t>(value);
    } else {
      t.*real = value;
    }
  }
};

/// In search-space order, which fixes the annealer's per-coordinate
/// draws: the aggregation enablers come last, so switching them on never
/// reorders the paper's dimensions.
inline constexpr Enabler kEnablers[] = {
    {.name = "update_interval", .row = "Status update interval",
     .paper_row = 0, .real = &Tuning::update_interval, .lo = 1.0,
     .hi = 150.0, .log_scale = true},
    {.name = "neighborhood_size", .row = "Neighborhood set size",
     .paper_row = 1, .count = &Tuning::neighborhood_size, .lo = 1.0,
     .hi = 8.0},
    // Faster control links are purchasable, slower ones tolerable.
    {.name = "link_delay_scale", .row = "Network link delay",
     .paper_row = 3, .real = &Tuning::link_delay_scale, .lo = 0.25,
     .hi = 1.6},
    {.name = "volunteer_interval",
     .row = "Interval for resource volunteering", .paper_row = 2,
     .real = &Tuning::volunteer_interval, .lo = 10.0, .hi = 300.0,
     .log_scale = true},
    {.name = "agg_fanout", .row = "Aggregation tree fan-out",
     .paper_row = 4, .count = &Tuning::agg_fanout, .lo = 1.0, .hi = 8.0,
     .control_plane = true},
    {.name = "agg_batch", .row = "Aggregation max batch size",
     .paper_row = 5, .count = &Tuning::agg_batch, .lo = 1.0, .hi = 32.0,
     .control_plane = true},
    // Linear: 0 (forward immediately) has no logarithm.
    {.name = "agg_flush", .row = "Aggregation flush interval",
     .paper_row = 6, .real = &Tuning::agg_flush, .lo = 0.0, .hi = 12.0,
     .control_plane = true},
};

/// Service costs (time units of RMS server work) that define G(k), plus
/// message sizes that drive network transfer delays.  G(k) is "the
/// overall time spent by the schedulers for scheduling, receiving, and
/// processing updates" — each constant below is one of those actions.
struct CostModel {
  // Estimator-side costs.
  double est_process_update = 0.01;  ///< vet one resource status report
  double est_forward_batch = 0.03;   ///< assemble + send one batch upstream

  // Scheduler-side costs.
  double sched_batch_base = 0.03;      ///< receive one status batch
  double sched_per_update = 0.01;      ///< integrate one update from a batch
  double sched_decision_base = 0.015;  ///< one placement decision
  double sched_decision_per_candidate = 2e-5;  ///< per resource tracked
  double sched_poll = 0.05;      ///< handle one poll request or reply
  double sched_transfer = 0.06;  ///< hand a job off / accept a handoff
  double sched_advert = 0.03;    ///< reservation / volunteer / invitation
  double sched_bid = 0.12;       ///< produce or evaluate one auction bid
  double sched_idle_event = 0.05;  ///< digest an idle notification

  // Middleware per-message service time (S-I / R-I / Sy-I, paper: "a
  // simple queue with infinite capacity and finite but small service
  // time").
  double middleware_service = 0.005;

  // Control-plane aggregator costs (docs/CONTROL_PLANE.md).  An
  // aggregator is a thin forwarding daemon, deliberately cheaper than
  // the estimator's vetting: aggregation pays off exactly when the
  // coalesced volume saves more est/sched per-update work than the
  // tree's own processing adds.  Charged to G via G_aggregator.
  double ctrl_process_update = 0.002;  ///< coalesce one update at a hop
  double ctrl_forward_batch = 0.01;    ///< ship one batch one hop up

  // Resource-pool overheads H(k): job control (launch/teardown), in
  // demand units — it is processing work, so its wall-clock cost is
  // job_control / service_rate and scales with the pool speed exactly
  // like the jobs themselves (keeps Case 2's efficiency band holdable).
  double job_control = 4.0;

  // Message sizes (arbitrary size units; links default to bandwidth 100).
  double size_update = 1.0;
  double size_control = 1.0;  ///< polls, bids, advertisements, replies
  double size_job = 8.0;      ///< job transfer payload
};

/// Protocol constants from the paper.  Table 1's T_CPU, the LOCAL/REMOTE
/// split, is a property of the jobs: WorkloadConfig::t_cpu.
struct ProtocolParams {
  double t_l = 0.5;      ///< threshold load at a scheduler (Table 1)
  double delta = 0.5;    ///< R-I: RUS threshold for volunteering
  double psi = 25.0;     ///< S-I: ATT tie tolerance
  double auction_window = 4.0;   ///< bid accumulation interval
  double advert_ttl_factor = 2.0;  ///< Sy-I advert freshness, x volunteer_interval
  double estimator_batch_window = 4.0;  ///< update batching at estimators
  double wait_queue_timeout = 60.0;     ///< R-I/Sy-I parked-job fallback
  /// Watchdog for request/reply rounds (polls, probes, demand
  /// negotiations): if replies have not arrived by then — lost control
  /// messages under failure injection, or a slow path — the round
  /// concludes with whatever it has and the job is placed locally.
  double reply_timeout = 40.0;
};

struct GridConfig {
  net::TopologyConfig topology;  ///< node count = schedulers+estimators+resources

  /// Target nodes per cluster (1 scheduler + estimators + resources).
  std::size_t cluster_size = 20;
  /// Estimators per cluster (Case 3 scaling variable).
  std::size_t estimators_per_cluster = 1;

  /// Resource service rate in demand units per time unit (Case 2
  /// scaling variable).  The default of 8 makes the mean job run for
  /// ~75 time units, so a 1500-unit horizon spans ~20 job generations
  /// and queueing dynamics settle well inside it.
  double service_rate = 8.0;

  /// Heterogeneity extension (the paper assumes homogeneous resources):
  /// each resource's rate is service_rate x Uniform[1-h, 1+h].  The
  /// schedulers keep estimating with the nominal rate, so their load
  /// views degrade gracefully — exactly the stress a real grid applies.
  double heterogeneity = 0.0;  ///< h in [0, 0.9]

  RmsKind rms = RmsKind::kLowest;

  /// Control-plane extension (src/ctrl): overlay a fan-out aggregation
  /// tree per (cluster, estimator) on the status-update path, with the
  /// Tuning::agg_* knobs as tunable enablers.  Off by default — and
  /// with the knobs at their degenerate defaults the report path
  /// bypasses the tree, so an enabled-but-degenerate run is
  /// bit-identical to this flag being off.
  bool control_plane = false;

  Tuning tuning;
  CostModel costs;
  ProtocolParams protocol;
  workload::WorkloadConfig workload;

  /// Where arrivals come from (docs/WORKLOADS.md): the synthetic
  /// generator (default — byte-identical to the pre-source-layer
  /// seed path), a saved CSV trace, or a Standard Workload Format log,
  /// optionally wrapped in composable load modulators.
  workload::SourceSpec workload_source;

  std::uint64_t seed = 42;
  double horizon = 1500.0;  ///< simulated time units

  /// Failure injection: probability that any single *control* message
  /// (polls, replies, updates, adverts, bids) is silently dropped.
  /// Job transfers stay reliable (they carry state that must not be
  /// lost).  Protocols recover via reply_timeout watchdogs.
  double control_loss_probability = 0.0;

  /// Fault-injection schedule (src/fault).  Inert by default; when any
  /// class is active GridSystem instantiates a FaultInjector, switches
  /// on the robustness mixin in every scheduler, and exports the fault
  /// counters and availability-adjusted efficiency.  All fault draws
  /// come from dedicated substreams, so a plan with any() == false is
  /// bit-identical to a build without the subsystem.
  fault::FaultPlan faults;

  /// Record per-job lifecycle events (arrival, transfers, dispatch,
  /// start, completion) for post-run analysis.  Off by default: the
  /// figure sweeps do not need it and it costs memory per job.
  bool job_log = false;

  /// Bound on job-log records (0 = unbounded).  At million-job scale an
  /// unbounded log defeats the streaming tier, so scale runs either
  /// leave job_log off or cap it; records past the cap are counted, not
  /// stored.
  std::size_t job_log_capacity = 0;

  /// How per-job results accumulate (docs/PERFORMANCE.md memory tiers).
  /// kFull (default) memoizes the arrival stream and keeps the exact
  /// response samples.  kStreaming pulls a cache miss live from its
  /// source and folds responses into an HDR histogram, making per-job
  /// memory O(1): F/G/H, every counter, and the mean response are
  /// bit-identical to kFull; only p95_response switches to the
  /// histogram approximation.
  ResultMode result_mode = ResultMode::kFull;

  /// Suppress a periodic update when the integer load is unchanged
  /// (paper: "if loading conditions ... did not change significantly from
  /// the previous update, an update might be suppressed").
  bool update_suppression = true;

  /// Run telemetry handle (non-owning; null = telemetry off, the
  /// default).  When set, the system threads it through the simulator,
  /// the servers, and the metrics assembly: sim-time tracing, the
  /// time-series probe, and the run manifest all record into it.  One
  /// handle describes one instrumented run — the enabler tuner strips it
  /// from candidate configs so search evaluations stay silent.
  obs::Telemetry* telemetry = nullptr;

  /// Validate invariants; throws std::invalid_argument on nonsense.
  void validate() const;

  /// Number of clusters implied by topology.nodes and cluster_size.
  std::size_t cluster_count() const;
};

}  // namespace scal::grid
