#pragma once
// TraceRecorder: in-memory recorder of simulation-time trace events that
// exports Chrome trace_event JSON, viewable in Perfetto (ui.perfetto.dev)
// or chrome://tracing.
//
// The mapping onto the trace model:
//   - the simulation is one "process" (pid 0),
//   - every instrumented entity (scheduler, estimator, middleware, the
//     event kernel) is a "thread" (a track, registered by name),
//   - server busy periods are duration spans (ph B/E),
//   - protocol messages and annealing iterations are instant events,
//   - queue depths / dispatch rates are counter events,
//   - job lifecycles are async spans (ph b/e keyed by job id), which may
//     overlap freely.
//
// Simulated time (abstract "time units") maps to trace microseconds by a
// configurable scale; the default of 1000 displays one time unit as 1 ms.
//
// Cost model: recording is a no-op returning immediately when the
// recorder is disabled, and instrumented components hold a null pointer
// when telemetry is off entirely, so the disabled cost in hot paths is
// one pointer test.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace scal::obs {

using TraceTid = std::uint32_t;

struct TraceEvent {
  char phase = 'i';  ///< B/E (span), X (complete), i, C, b/e (async), M
  TraceTid tid = 0;
  double ts = 0.0;   ///< trace microseconds (sim time x scale)
  double dur = 0.0;  ///< span length in trace microseconds (ph X only)
  std::uint64_t async_id = 0;  ///< correlates b/e pairs
  std::string name;
  std::string cat;
  /// Numeric args rendered into the event's "args" object.
  std::vector<std::pair<std::string, double>> args;
  /// String args (metadata events, labels).
  std::vector<std::pair<std::string, std::string>> str_args;
};

class TraceRecorder {
 public:
  /// `us_per_time_unit` scales sim time to trace timestamps.
  explicit TraceRecorder(double us_per_time_unit = 1000.0)
      : scale_(us_per_time_unit) {}

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  double time_scale() const noexcept { return scale_; }

  /// Register a named track ("thread"); emits the thread_name metadata
  /// event.  Tracks appear in registration order.
  TraceTid register_track(const std::string& name);

  // -- Recording (all no-ops while disabled).
  void begin(TraceTid tid, const char* name, const char* cat, double at);
  void begin(TraceTid tid, const char* name, const char* cat, double at,
             std::vector<std::pair<std::string, double>> args);
  void end(TraceTid tid, double at);
  void instant(TraceTid tid, const char* name, const char* cat, double at);
  void instant(TraceTid tid, const char* name, const char* cat, double at,
               std::vector<std::pair<std::string, double>> args);
  void counter(TraceTid tid, const char* name, double at, double value);
  /// Complete span (ph X).  Unlike the other recorders, `ts_us` and
  /// `dur_us` are already trace microseconds — no sim-time scaling —
  /// because the profiler track carries wall-clock spans.
  void complete(TraceTid tid, const char* name, const char* cat, double ts_us,
                double dur_us);
  void async_begin(TraceTid tid, std::uint64_t id, const char* name,
                   const char* cat, double at);
  void async_instant(TraceTid tid, std::uint64_t id, const char* name,
                     const char* cat, double at);
  void async_end(TraceTid tid, std::uint64_t id, const char* cat, double at);

  std::size_t size() const noexcept { return events_.size(); }
  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  const std::vector<std::string>& tracks() const noexcept { return tracks_; }

  /// Chrome trace_event JSON ({"traceEvents": [...], ...}).
  void write_json(std::ostream& os) const;
  /// Returns false (and logs) when the file cannot be written.
  bool write_file(const std::string& path) const;

 private:
  TraceEvent& push(char phase, TraceTid tid, double at);

  bool enabled_ = false;
  double scale_;
  std::vector<TraceEvent> events_;
  std::vector<std::string> tracks_;
};

}  // namespace scal::obs
