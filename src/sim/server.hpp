#pragma once
// A single FIFO work server.
//
// Schedulers, estimators, and the grid middleware are modeled as servers:
// each incoming action (process one status update, make one placement
// decision, handle one poll) is a work item with an explicit service cost.
// The server processes items one at a time; its accumulated busy time is
// exactly the overhead quantity G(k) the paper measures ("the overall time
// spent by the schedulers for scheduling, receiving, and processing
// updates").  Saturation — queue growth when offered load exceeds one —
// is what makes a centralized RMS overhead blow up at scale.

#include <cstdint>
#include <deque>

#include "obs/trace.hpp"
#include "sim/entity.hpp"
#include "sim/event_queue.hpp"

namespace scal::sim {

class Server : public Entity {
 public:
  using Entity::Entity;

  /// Enqueue a work item costing `cost >= 0` time units; `done` runs when
  /// service completes (may be empty).
  void submit(Time cost, EventFn done);

  /// Total time this server has spent serving items.
  Time busy_time() const noexcept { return busy_time_; }
  /// Work-in-system time: busy time plus the time-integral of the
  /// waiting queue.  Equals the summed sojourn of work items.  This is
  /// the overhead quantity G(k) uses: for a server that keeps up it is
  /// ~= busy_time(), and it diverges superlinearly exactly when the
  /// manager saturates — the signature the scalability metric must
  /// expose for a bottlenecked RMS.
  Time work_in_system_time() const noexcept {
    return busy_time_ + queue_time_integral();
  }
  /// Items currently waiting (excluding the one in service).
  std::size_t queue_length() const noexcept { return queue_.size(); }
  bool busy() const noexcept { return in_service_; }
  /// Time-integral of queue length (for mean-queue statistics).
  double queue_time_integral() const noexcept;

  /// Fault hook: while down the server discards every submitted item
  /// (the work is never offered, so it cannot inflate G) and going down
  /// drops the waiting queue; an item already in service completes
  /// normally.  Up by default; the only cost when never used is one
  /// boolean test in submit().
  void set_down(bool down);
  bool down() const noexcept { return down_; }
  /// Items discarded because the server was down.
  std::uint64_t items_discarded() const noexcept { return discarded_; }

  /// Telemetry hook: record a B/E busy span on `tid` of `trace` for
  /// every service period.  Null detaches; the disabled cost in the
  /// service path is one pointer test.
  void attach_trace(obs::TraceRecorder* trace, obs::TraceTid tid) noexcept {
    trace_ = trace;
    trace_tid_ = tid;
  }
  /// Close a span left open by an item still in service (call once after
  /// the simulation ends so exported traces have matched B/E pairs).
  void close_open_span(Time at) {
    if (trace_ != nullptr && in_service_) trace_->end(trace_tid_, at);
  }

 private:
  struct Item {
    Time cost;
    EventFn done;
  };

  void start_next();
  void finish_service();
  void note_queue_change();

  std::deque<Item> queue_;
  // Completion callable of the item in service.  Held in a member so the
  // scheduled completion event captures only `this` (stays inline in the
  // event arena) instead of nesting the user callable inside another
  // closure.
  EventFn current_done_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::TraceTid trace_tid_ = 0;
  bool in_service_ = false;
  bool down_ = false;
  std::uint64_t discarded_ = 0;
  Time busy_time_ = 0.0;
  mutable Time last_queue_change_ = 0.0;
  mutable double queue_integral_ = 0.0;
};

}  // namespace scal::sim
