#include "sim/server.hpp"

#include <stdexcept>
#include <utility>

namespace scal::sim {

void Server::note_queue_change() {
  const Time t = now();
  queue_integral_ += static_cast<double>(queue_.size()) *
                     (t - last_queue_change_);
  last_queue_change_ = t;
}

double Server::queue_time_integral() const noexcept {
  // Fold in the un-accounted tail up to the current time.
  const Time t = now();
  return queue_integral_ +
         static_cast<double>(queue_.size()) * (t - last_queue_change_);
}

void Server::set_down(bool down) {
  if (down == down_) return;
  down_ = down;
  if (down && !queue_.empty()) {
    note_queue_change();
    discarded_ += queue_.size();
    queue_.clear();
  }
}

void Server::submit(Time cost, EventFn done) {
  if (!(cost >= 0.0)) throw std::invalid_argument("Server: negative cost");
  if (down_) {
    ++discarded_;
    return;
  }
  note_queue_change();
  queue_.push_back(Item{cost, std::move(done)});
  if (!in_service_) start_next();
}

void Server::start_next() {
  if (queue_.empty()) {
    in_service_ = false;
    return;
  }
  note_queue_change();
  Item item = std::move(queue_.front());
  queue_.pop_front();
  in_service_ = true;
  busy_time_ += item.cost;
  if (trace_ != nullptr) {
    trace_->begin(trace_tid_, "serve", "server", now(),
                  {{"cost", item.cost},
                   {"backlog", static_cast<double>(queue_.size())}});
  }
  current_done_ = std::move(item.done);
  sim().schedule_in(item.cost, [this]() { finish_service(); });
}

void Server::finish_service() {
  if (trace_ != nullptr) trace_->end(trace_tid_, now());
  // Detach before invoking: the callable may submit more work, which
  // would overwrite current_done_ when service starts.
  EventFn done = std::move(current_done_);
  if (done) done();
  start_next();
}

}  // namespace scal::sim
