#pragma once
// In-memory span log for the benchmark's traced run.
//
// Spans are recorded by the benchmark's own code around calls into the
// simulator's public functions; nothing inside the simulator is traced.
// A span holds a name, its start and end on the steady clock, the thread
// that ran it, and a request id (the simulation or tune index it belongs
// to).  Parents are not tracked while recording: resolve() nests the
// spans of each thread by interval containment once every thread has
// finished, which gives each span its parent and lets a layer's self
// time be its span minus the spans of its direct children.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  ///< static string: one of the layer span names
  double start_s = 0.0;   ///< seconds since the log's origin
  double end_s = 0.0;
  std::uint32_t tid = 0;  ///< dense thread index, in order of first use
  std::int64_t request = -1;
  std::int64_t parent = -1;  ///< index of the enclosing span; by resolve()
};

/// Total and self time of every span sharing one name.
struct NameTime {
  double total_s = 0.0;
  double self_s = 0.0;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Record one finished span.  Thread-safe.
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           std::int64_t request = -1);

  /// Assign parents by containment.  Call after every recording thread
  /// has finished; later add() calls need another resolve().
  void resolve();

  /// Per-name totals and self times over the spans starting at or after
  /// `from_s` (seconds since the origin).  Requires resolve().
  std::map<std::string, NameTime> times_since(double from_s) const;

  /// Write every span as a Chrome-trace "X" event (load the file in
  /// Perfetto or chrome://tracing).  Returns false when the file could
  /// not be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::mutex mutex_;  // guards spans_ and tids_
  std::vector<Span> spans_;
  std::map<std::thread::id, std::uint32_t> tids_;
};

}  // namespace bench
