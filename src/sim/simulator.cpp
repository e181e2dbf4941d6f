#include "sim/simulator.hpp"

#include <cmath>
#include <stdexcept>

namespace scal::sim {

EventId Simulator::schedule_in(Time delay, EventFn fn) {
  if (!(delay >= 0.0) || std::isnan(delay)) {
    throw std::invalid_argument("Simulator: negative or NaN delay");
  }
  return queue_.push(now_ + delay, std::move(fn));
}

EventId Simulator::schedule_at(Time at, EventFn fn) {
  if (at < now_ || std::isnan(at)) {
    throw std::invalid_argument("Simulator: scheduling into the past");
  }
  return queue_.push(at, std::move(fn));
}

std::uint64_t Simulator::run(Time until) {
  if (running_) throw std::logic_error("Simulator::run is not reentrant");
  running_ = true;
  // Cleared on every exit, including an exception thrown by an event, so
  // the kernel stays resettable (fire_top releases the event's slot).
  struct ClearRunning {
    bool& running;
    ~ClearRunning() { running = false; }
  } clear_running{running_};
  stop_requested_ = false;
  std::uint64_t count = 0;
  while (!queue_.empty() && !stop_requested_) {
    const Time at = queue_.peek_time();
    if (at > until) break;
    now_ = at;
    queue_.fire_top();
    ++count;
    ++dispatched_;
    if (observe_every_ != 0 &&
        (dispatched_ - credited_) % observe_every_ == 0) {
      dispatch_observer_(now_, dispatched_, queue_.size());
    }
  }
  // If we reached the horizon (queue drained or next event beyond it),
  // advance the clock to it so measurements see a consistent end time.
  if (!stop_requested_ && until < kTimeInfinity && now_ < until) {
    now_ = until;
  }
  return count;
}

}  // namespace scal::sim
