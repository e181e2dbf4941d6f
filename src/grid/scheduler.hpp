#pragma once
// Base class for the nine RMS kinds (the paper's seven, HIER and
// RANDOM).  A scheduler is a FIFO server: every action — making a
// placement decision, digesting a status batch, handling a protocol
// message — is a costed work item, and the sum of the costs offered to
// all schedulers is the dominant part of the RMS overhead G(k).
//
// The base class owns the status tables (per-cluster resource load
// views built from estimator batches), the dispatch/transfer plumbing,
// the messaging helpers and the robustness mixin's retry step;
// subclasses in src/rms implement the protocols by overriding the
// handle_* hooks.

#include <cstdint>
#include <vector>

#include "grid/messages.hpp"
#include "net/graph.hpp"
#include "obs/phase_profiler.hpp"
#include "sim/server.hpp"
#include "util/rng.hpp"

namespace scal::grid {

class GridSystem;

/// A scheduler's view of one resource, built from status updates.
struct ResourceView {
  double load = 0.0;
  sim::Time stamp = 0.0;
};

class SchedulerBase : public sim::Server {
 public:
  SchedulerBase(GridSystem& system, sim::EntityId id, ClusterId cluster,
                net::NodeId node);

  // -- Entry points invoked by the system / network (delays already paid).

  /// A freshly submitted job reaches this scheduler; queues the decision
  /// work item, then the policy's handle_job runs.
  void deliver_job(workload::Job job);

  /// A status batch from one of this scheduler's estimators.
  void deliver_batch(StatusBatch batch);

  /// An inter-scheduler protocol message.
  void deliver_message(RmsMessage msg);

  /// Policy initialization hook (periodic timers etc.).  Called once
  /// before the simulation starts.
  virtual void on_start() {}

  ClusterId cluster() const noexcept { return cluster_; }
  net::NodeId node() const noexcept { return node_; }

  /// True for the superscheduler family (S-I, R-I, Sy-I): all
  /// inter-scheduler traffic is relayed through the grid middleware.
  virtual bool uses_middleware() const { return false; }

  /// True for policies that react to idle-resource events surfaced by
  /// the status stream (AUCTION, Sy-I).
  virtual bool wants_idle_events() const { return false; }

  // -- Robustness mixin (fault subsystem; inert unless enabled).

  /// Switch on the shared robustness behavior every policy inherits:
  /// table entries older than `staleness_window` are evicted from
  /// placement scans, zero-reply protocol rounds retry up to
  /// `retry_budget` times with exponential backoff, and crash-killed
  /// jobs requeue through deliver_requeue at most `requeue_budget`
  /// times.  GridSystem calls this for every scheduler whenever the
  /// run's FaultPlan is active.
  void enable_robustness(double staleness_window, std::uint32_t requeue_budget,
                         std::uint32_t retry_budget,
                         double retry_backoff_base);
  bool robust() const noexcept { return staleness_window_ > 0.0; }

  /// Fault injection: while blacked out, status batches and job-free
  /// protocol messages are dropped on arrival (counted); job-carrying
  /// messages and fresh submissions still queue, so jobs conserve.
  void set_blackout(bool down) { blackout_ = down; }
  bool blacked_out() const noexcept { return blackout_; }

  /// A crash-killed job re-enters this scheduler (network hop already
  /// paid).  Spends one unit of the job's requeue budget; over budget
  /// the job is lost (counted).  The repeat decision work and transfer
  /// traffic are charged to G like any first attempt.
  void deliver_requeue(workload::Job job);

 protected:
  // -- Hooks the policies implement.
  virtual void handle_job(workload::Job job) = 0;
  virtual void handle_message(const RmsMessage& msg);
  /// Called after a batch is folded into the tables.
  virtual void after_batch(const StatusBatch& /*batch*/) {}
  /// Called (if wants_idle_events) when a batch from estimator
  /// `estimator` shows a resource going idle.
  virtual void handle_idle_resource(ResourceIndex /*resource*/,
                                    std::uint32_t /*estimator*/) {}

  // -- Helpers available to policies.

  GridSystem& system() noexcept { return *system_; }
  const GridSystem& system() const noexcept { return *system_; }
  util::RandomStream& rng() noexcept { return rng_; }

  /// The status table for `cluster` (CENTRAL tracks all clusters; the
  /// distributed policies track only their own).
  const std::vector<ResourceView>& table(ClusterId cluster) const;
  bool tracks(ClusterId cluster) const;

  /// Index of the least-loaded resource in `cluster`'s table
  /// (ties break to the lowest index).
  ResourceIndex least_loaded(ClusterId cluster) const;
  /// Load of that resource.
  double least_load(ClusterId cluster) const;
  /// Fraction of `cluster`'s resources with load >= 1 — the paper's
  /// "average cluster load" compared against T_l = 0.5.
  double busy_fraction(ClusterId cluster) const;
  /// Most-loaded resource with at least one *queued* job (load >= 2),
  /// or kNoResource when none.
  static constexpr ResourceIndex kNoResource = ~ResourceIndex{0};
  ResourceIndex most_backlogged(ClusterId cluster) const;

  /// Dispatch `job` onto resource `r` of this scheduler's own cluster
  /// (or any tracked cluster for CENTRAL): pays the network hop and
  /// optimistically bumps the table entry.
  void dispatch(ClusterId cluster, ResourceIndex r, workload::Job job);

  /// Send a protocol message to another scheduler, paying the send-side
  /// work `send_cost` and routing via the middleware when the policy
  /// uses it.
  void send_message(ClusterId dst, RmsMessage msg, double send_cost);

  /// `count` distinct random peer clusters (never this one).
  std::vector<ClusterId> random_peers(std::size_t count);

  /// Estimated waiting + run time ("ATT" ingredients) for a job of the
  /// given demand on this scheduler's least-loaded local resource.
  double estimate_awt(ClusterId cluster) const;
  double estimate_ert(double exec_demand) const;

  /// Predicted one-way job-transfer delay to a peer's scheduler node.
  double predict_transfer_delay(ClusterId dst) const;

  /// Fresh correlation token.
  std::uint64_t next_token() noexcept { return token_counter_++; }

  /// Robustness: is this table entry fresh enough to act on?  Always
  /// true when the mixin is off.
  bool view_usable(const ResourceView& v) const noexcept {
    return staleness_window_ <= 0.0 || now() - v.stamp <= staleness_window_;
  }
  double staleness_window() const noexcept { return staleness_window_; }
  /// True while `attempt` retries have not exhausted the retry budget.
  bool should_retry(std::uint32_t attempt) const noexcept {
    return staleness_window_ > 0.0 && attempt < retry_budget_;
  }
  /// The retry step of a round that failed on attempt `attempt` (checked
  /// with should_retry first): counts the retry, then runs `restart`
  /// after the backoff base * 2^attempt.  The repeat round's messages
  /// are charged to G like the first round's.
  void retry_round(std::uint32_t attempt, sim::EventFn restart);

 public:
  /// Called once by GridSystem during wiring: seed the status tables for
  /// the clusters this scheduler tracks (distinct ids).
  void init_tables(const std::vector<ClusterId>& clusters);

  /// Attach the (optional) phase profiler: scheduling decisions and
  /// status-batch folds run inside the given phases.  Purely
  /// observational — a null profiler costs one pointer test.
  void attach_profiler(obs::PhaseProfiler* profiler, obs::PhaseId decision,
                       obs::PhaseId batch) noexcept {
    profiler_ = profiler;
    decision_phase_ = decision;
    batch_phase_ = batch;
  }

 private:
  void fold_batch(const StatusBatch& batch);

  /// One tracked cluster's table.  Kept in a flat vector sorted by
  /// cluster id: the distributed policies track exactly one cluster and
  /// CENTRAL scans all of them every decision, so binary search plus
  /// contiguous iteration beats hashing on both shapes.
  struct ClusterTable {
    ClusterId cluster;
    std::vector<ResourceView> views;
  };
  std::vector<ResourceView>* find_table(ClusterId cluster);
  const std::vector<ResourceView>* find_table(ClusterId cluster) const;

  GridSystem* system_;
  ClusterId cluster_;
  net::NodeId node_;
  util::RandomStream rng_;
  std::vector<ClusterTable> tables_;  // sorted by cluster id
  std::size_t candidate_count_ = 0;   // sum of tracked table sizes
  std::uint64_t token_counter_ = 1;

  obs::PhaseProfiler* profiler_ = nullptr;
  obs::PhaseId decision_phase_ = 0;
  obs::PhaseId batch_phase_ = 0;

  // Robustness mixin state (all zero/false = mixin off).
  double staleness_window_ = 0.0;
  std::uint32_t requeue_budget_ = 0;
  std::uint32_t retry_budget_ = 0;
  double retry_backoff_base_ = 0.0;
  bool blackout_ = false;
};

}  // namespace scal::grid
