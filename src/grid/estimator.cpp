#include "grid/estimator.hpp"

#include <stdexcept>

namespace scal::grid {

Estimator::Estimator(sim::Simulator& sim, sim::EntityId id, ClusterId cluster,
                     std::uint32_t index, double process_cost,
                     double forward_cost, double batch_window,
                     std::function<void(StatusBatch)> forward)
    : Server(sim, id, "estimator"), cluster_(cluster), index_(index),
      process_cost_(process_cost), forward_cost_(forward_cost),
      batch_window_(batch_window), forward_(std::move(forward)) {
  if (!(process_cost_ >= 0.0) || !(forward_cost_ >= 0.0) ||
      !(batch_window_ >= 0.0)) {
    throw std::invalid_argument("Estimator: negative costs");
  }
}

void Estimator::receive_update(StatusUpdate update) {
  submit(process_cost_, [this, update]() mutable {
    obs::PhaseProfiler::Scope scope(profiler_, update_phase_);
    integrate(update);
  });
}

void Estimator::receive_bundle(std::vector<StatusUpdate> updates) {
  if (updates.empty()) return;
  submit(process_cost_ * static_cast<double>(updates.size()),
         [this, ups = std::move(updates)]() mutable {
           obs::PhaseProfiler::Scope scope(profiler_, update_phase_);
           for (StatusUpdate& u : ups) integrate(u);
         });
}

void Estimator::integrate(StatusUpdate update) {
  if (update.resource >= last_load_.size()) {
    last_load_.resize(update.resource + 1, -1.0);
  }
  const double prev = last_load_[update.resource];
  // A recovery report is a state reset, not a transition: the resource
  // may have crashed while busy, and flagging its fresh zero-load
  // report as an idle transition would fire phantom idle-event
  // triggers (AUCTION invitations, Sy-I adverts) for capacity that
  // never actually drained a job.
  update.idle_transition =
      !update.recovered && prev > 0.5 && update.load < 0.5;
  last_load_[update.resource] = update.load;
  buffer_.push_back(update);
  if (!flush_scheduled_) {
    flush_scheduled_ = true;
    sim().schedule_in(batch_window_, [this]() { flush(); });
  }
}

void Estimator::flush() {
  flush_scheduled_ = false;
  if (buffer_.empty()) return;
  submit(forward_cost_, [this]() {
    if (buffer_.empty()) return;
    StatusBatch batch;
    batch.cluster = cluster_;
    batch.estimator = index_;
    batch.updates.swap(buffer_);
    forward_(std::move(batch));
  });
}

}  // namespace scal::grid
