#pragma once
// Sequential discrete-event simulation kernel.
//
// This stands in for the Parsec simulation environment the paper used:
// entities exchange timed events; the kernel advances virtual time to the
// next event and dispatches it.  A run is deterministic for a fixed
// schedule order and RNG seed.

#include <cstdint>
#include <functional>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace scal::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  Time now() const noexcept { return now_; }

  /// Schedule `fn` to run `delay >= 0` after now.
  EventId schedule_in(Time delay, EventFn fn);

  /// Schedule `fn` at absolute time `at >= now()`.
  EventId schedule_at(Time at, EventFn fn);

  /// Cancel a pending event; returns true if it had not yet fired.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Run until the queue drains or virtual time would exceed `until`.
  /// Events at exactly `until` still run.  Returns the events it fired.
  std::uint64_t run(Time until = kTimeInfinity);

  /// Request that run() return after the current event completes.
  void stop() noexcept { stop_requested_ = true; }

  bool idle() const noexcept { return queue_.empty(); }
  std::size_t pending_events() const noexcept { return queue_.size(); }
  /// Model events dispatched: the events run() fired plus those credited.
  std::uint64_t dispatched_events() const noexcept { return dispatched_; }

  /// Count `n` model events the host never fired into dispatched_events():
  /// timer ticks an entity skipped because their outcome was known (a
  /// quiet resource's suppressed status reports).
  void credit_dispatched(std::uint64_t n) noexcept {
    dispatched_ += n;
    credited_ += n;
  }

  /// Telemetry hook: call `fn(now, dispatched, pending)` once every
  /// `every` fired events; `dispatched` is the model count so far.
  /// Sampling (rather than per-event callbacks) keeps kernel
  /// instrumentation from distorting overhead measurements; `every = 0`
  /// detaches the observer, and the disabled cost is a single integer
  /// test per event.
  using DispatchObserver =
      std::function<void(Time now, std::uint64_t dispatched,
                         std::size_t pending)>;
  void set_dispatch_observer(std::uint64_t every, DispatchObserver fn) {
    observe_every_ = fn ? every : 0;
    dispatch_observer_ = std::move(fn);
  }

 private:
  EventQueue queue_;
  Time now_ = kTimeZero;
  std::uint64_t dispatched_ = 0;
  std::uint64_t credited_ = 0;
  std::uint64_t observe_every_ = 0;
  DispatchObserver dispatch_observer_;
  bool stop_requested_ = false;
  bool running_ = false;
};

}  // namespace scal::sim
