#include "ctrl/aggregator.hpp"

#include <stdexcept>
#include <utility>

namespace scal::ctrl {

Aggregator::Aggregator(
    sim::Simulator& sim, sim::EntityId id, net::NodeId node,
    double process_cost, double forward_cost,
    std::function<void(std::vector<grid::StatusUpdate>)> forward)
    : Server(sim, id, "aggregator"), node_(node),
      process_cost_(process_cost), forward_cost_(forward_cost),
      forward_(std::move(forward)) {
  if (!(process_cost_ >= 0.0) || !(forward_cost_ >= 0.0)) {
    throw std::invalid_argument("Aggregator: negative costs");
  }
  if (!forward_) {
    throw std::invalid_argument("Aggregator: null forward callback");
  }
}

void Aggregator::configure(std::uint32_t max_batch, double flush_interval) {
  if (max_batch == 0) {
    throw std::invalid_argument("Aggregator: max_batch must be >= 1");
  }
  max_batch_ = max_batch;
  flush_interval_ = flush_interval;
}

void Aggregator::ingest(std::vector<grid::StatusUpdate> updates) {
  if (updates.empty()) return;
  if (blackout_) {
    // Failover relay: children effectively re-parent to the grandparent,
    // so traffic keeps flowing but this host does no work (and charges
    // nothing to G) while it is down.
    forward_(std::move(updates));
    return;
  }
  // The cost must be read before the capture-init moves the vector:
  // argument evaluation order is unspecified.
  const double cost = process_cost_ * static_cast<double>(updates.size());
  updates_in_ += updates.size();
  submit(cost, [this, ups = std::move(updates)]() mutable {
           if (blackout_) {
             // Went down while the bundle sat in the work queue: relay.
             forward_(std::move(ups));
             return;
           }
           for (auto& u : ups) absorb(std::move(u));
           maybe_flush();
         });
}

void Aggregator::absorb(grid::StatusUpdate update) {
  for (Pending& p : buffer_) {
    if (p.update.cluster == update.cluster &&
        p.update.resource == update.resource) {
      // Coalesce: the newer view supersedes the buffered one.  The hold
      // clock restarts — staleness is measured from the surviving
      // update's buffering, which is what actually gets forwarded.
      p.update = std::move(update);
      p.buffered_at = now();
      ++coalesced_;
      ++buffer_absorbed_;
      return;
    }
  }
  buffer_.push_back(Pending{std::move(update), now()});
}

void Aggregator::maybe_flush() {
  if (buffer_.empty()) return;
  if (buffer_.size() >= max_batch_ || flush_interval_ <= 0.0) {
    flush();
    return;
  }
  if (!timer_armed_) {
    timer_armed_ = true;
    sim().schedule_in(flush_interval_, [this]() {
      timer_armed_ = false;
      if (!blackout_) flush();
    });
  }
}

void Aggregator::flush() {
  if (buffer_.empty()) return;
  const std::uint64_t absorbed = buffer_absorbed_;
  buffer_absorbed_ = 0;
  submit(forward_cost_, [this, absorbed]() { forward_buffer(absorbed); });
}

void Aggregator::forward_buffer(std::uint64_t absorbed) {
  if (buffer_.empty()) return;
  std::vector<grid::StatusUpdate> batch;
  batch.reserve(buffer_.size());
  for (Pending& p : buffer_) {
    if (hop_delay_hist_ != nullptr) {
      hop_delay_hist_->record(now() - p.buffered_at);
    }
    batch.push_back(std::move(p.update));
  }
  buffer_.clear();
  ++batches_;
  if (coalescing_hist_ != nullptr) {
    coalescing_hist_->record(static_cast<double>(absorbed));
  }
  forward_(std::move(batch));
}

void Aggregator::set_blackout(bool down) {
  if (down == blackout_) return;
  if (down && !buffer_.empty()) {
    // Failover flush: the dying host hands its spool upstream at zero
    // cost so pending (already charged-for) updates are never lost.
    forward_buffer(buffer_absorbed_);
    buffer_absorbed_ = 0;
  }
  blackout_ = down;
}

}  // namespace scal::ctrl
