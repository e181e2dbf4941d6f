#pragma once
// Status estimator: "the RMS nodes which receive the status updates from
// RP resources and distribute to the scheduling decision makers"
// (paper, Figure 4 caption).  An estimator is a FIFO server: it vets
// each incoming update, batches updates that arrive within a short
// window, and forwards each batch upstream to its scheduler.  Its
// offered work is part of G(k).  Case 3 scales the number of these.

#include <functional>
#include <vector>

#include "grid/messages.hpp"
#include "obs/phase_profiler.hpp"
#include "sim/server.hpp"

namespace scal::grid {

class Estimator : public sim::Server {
 public:
  /// `forward` ships a finished batch toward the cluster's scheduler
  /// (the system wires in the network hop).
  Estimator(sim::Simulator& sim, sim::EntityId id, ClusterId cluster,
            std::uint32_t index, double process_cost, double forward_cost,
            double batch_window, std::function<void(StatusBatch)> forward);

  /// An update arrives from a resource (network delay already paid).
  /// Taken by value: the estimator annotates its own copy with the
  /// idle-transition flag relative to its own last view.
  void receive_update(StatusUpdate update);

  /// A coalesced bundle arrives from the aggregation tree's root child
  /// (control plane, docs/CONTROL_PLANE.md).  One queue item charges
  /// process_cost x n — same vetting rate as n singleton updates — then
  /// every update is annotated and buffered exactly like
  /// receive_update, so downstream batching semantics are unchanged.
  void receive_bundle(std::vector<StatusUpdate> updates);

  ClusterId cluster() const noexcept { return cluster_; }
  std::uint32_t index() const noexcept { return index_; }

  /// Attach the (optional) phase profiler: update processing runs
  /// inside the given phase.  Null profiler = one pointer test.
  void attach_profiler(obs::PhaseProfiler* profiler,
                       obs::PhaseId update_phase) noexcept {
    profiler_ = profiler;
    update_phase_ = update_phase;
  }

 private:
  void flush();
  /// Annotate `update` against the last-load view and buffer it; the
  /// caller has already charged the processing cost.
  void integrate(StatusUpdate update);

  ClusterId cluster_;
  std::uint32_t index_;
  double process_cost_;
  double forward_cost_;
  double batch_window_;
  std::function<void(StatusBatch)> forward_;

  std::vector<StatusUpdate> buffer_;
  /// Last load seen per resource index, for idle-transition detection
  /// (negative = never seen).
  std::vector<double> last_load_;
  bool flush_scheduled_ = false;

  obs::PhaseProfiler* profiler_ = nullptr;
  obs::PhaseId update_phase_ = 0;
};

}  // namespace scal::grid
