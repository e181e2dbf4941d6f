#pragma once
// PhaseProfiler: scoped RAII wall-clock timers over named phases of the
// run — event dispatch, routing, scheduling decisions, estimator
// updates, tuner evaluations, workload generation.  Each phase
// accumulates call count, cumulative nanoseconds (time inside the
// scope, children included), and self nanoseconds (cumulative minus
// time spent in nested scopes), so nested instrumentation attributes
// every nanosecond to exactly one phase.
//
// Determinism contract: the wall-clock nanoseconds are honest
// measurements and therefore differ between runs; the *call counts*
// are pure functions of the simulated execution, so counts_json() is
// bit-identical across runs and at any --jobs count when per-worker
// profilers are merged in slot order (merge() accumulates by name).
//
// Threading: one PhaseProfiler serves one thread.  Parallel stages run
// one profiler per worker slot and merge on the coordinating thread
// afterwards (see core::tune_enablers).
//
// Cost model: a disabled profiler's Scope is inert — the constructor
// does one flag test and stores null; instrumented call sites hold a
// null pointer when telemetry metrics are off entirely.  An enabled
// scope reads the CPU cycle counter (rdtsc-class, a few ns) rather
// than the system clock; ticks are converted to nanoseconds with a
// once-per-process calibrated scale, keeping the per-scope cost low
// enough for per-message instrumentation (the perf_smoke
// case1_LOWEST_profiled sample gates the total).

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace scal::obs {

using PhaseId = std::uint32_t;

class PhaseProfiler {
 public:
  PhaseProfiler() = default;
  explicit PhaseProfiler(bool enabled) { set_enabled(enabled); }

  bool enabled() const noexcept { return enabled_; }
  /// Enabling triggers the once-per-process tick calibration, so the
  /// first enable pays a short spin (outside any timed region in the
  /// benches — Telemetry construction precedes the runs).
  void set_enabled(bool enabled) {
    enabled_ = enabled;
    if (enabled && scale_ == 0.0) scale_ = ns_per_tick();
  }

  /// Register (or look up) a phase by name; ids are dense and stable in
  /// registration order.
  PhaseId phase(const std::string& name);

  struct PhaseStats {
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;  ///< time inside the scope, children included
    std::uint64_t self_ns = 0;   ///< total_ns minus nested scopes
  };

  const std::vector<PhaseStats>& phases() const noexcept { return phases_; }
  const PhaseStats& stats(PhaseId id) const { return phases_.at(id); }

  /// RAII timing scope.  Constructing against a null or disabled
  /// profiler is an inert no-op.  Scopes nest: a scope's elapsed time
  /// is subtracted from its parent's self time.
  class Scope {
   public:
    Scope(PhaseProfiler* profiler, PhaseId id)
        : profiler_(profiler != nullptr && profiler->enabled_ ? profiler
                                                              : nullptr) {
      if (profiler_ != nullptr) profiler_->enter(id);
    }
    ~Scope() {
      if (profiler_ != nullptr) profiler_->exit();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PhaseProfiler* profiler_;
  };

  /// Fold `other`'s stats into this profiler by phase name: matching
  /// names accumulate, new names append in `other`'s registration
  /// order.  Merging per-slot profilers in slot order is the
  /// deterministic reduction for parallel stages.
  void merge(const PhaseProfiler& other);

  /// Optionally mirror completed scopes into a Chrome trace as 'X'
  /// complete events on `tid`.  Timestamps are wall-clock microseconds
  /// since the first recorded scope (NOT scaled sim time — the track
  /// shows where real time went, next to the sim-time tracks).
  void attach_trace(TraceRecorder* trace, TraceTid tid) noexcept {
    trace_ = trace;
    trace_tid_ = tid;
  }

  /// Full JSON: {"name":{"calls":...,"total_ns":...,"self_ns":...},...}
  /// in registration order.  The ns fields are wall-clock measurements
  /// and differ between runs.
  std::string to_json() const;

  /// Deterministic JSON: {"name":calls,...} in registration order —
  /// the bit-identity surface for the --jobs 1 vs N tests.
  std::string counts_json() const;

 private:
  struct Frame {
    PhaseId id;
    std::uint64_t start_ticks;
    std::uint64_t child_ns = 0;
  };

  /// Raw monotonic cycle counter: one unserialized read, no syscall.
  static std::uint64_t read_ticks() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
    std::uint64_t t;
    asm volatile("mrs %0, cntvct_el0" : "=r"(t));
    return t;
#else
    return fallback_now_ns();  // ticks ARE nanoseconds on this arch
#endif
  }

  /// Nanoseconds per tick, calibrated once per process against the
  /// steady clock (a short spin on first use; exactly 1.0 on the
  /// fallback arch).
  static double ns_per_tick();
  static std::uint64_t fallback_now_ns() noexcept;

  void enter(PhaseId id) {
    const std::uint64_t start = read_ticks();
    if (trace_ != nullptr && trace_epoch_ticks_ == 0) {
      trace_epoch_ticks_ = start;
    }
    stack_.push_back(Frame{id, start, 0});
  }

  void exit() {
    if (stack_.empty()) return;
    const Frame frame = stack_.back();
    stack_.pop_back();
    const std::uint64_t end = read_ticks();
    const std::uint64_t ticks =
        end > frame.start_ticks ? end - frame.start_ticks : 0;
    const auto elapsed =
        static_cast<std::uint64_t>(static_cast<double>(ticks) * scale_);
    PhaseStats& stats = phases_[frame.id];
    ++stats.calls;
    stats.total_ns += elapsed;
    stats.self_ns += elapsed > frame.child_ns ? elapsed - frame.child_ns : 0;
    if (!stack_.empty()) stack_.back().child_ns += elapsed;
    if (trace_ != nullptr) mirror_to_trace(frame, elapsed);
  }

  void mirror_to_trace(const Frame& frame, std::uint64_t elapsed_ns);

  bool enabled_ = false;
  double scale_ = 0.0;  ///< ns per tick; set when the profiler is enabled
  std::vector<PhaseStats> phases_;
  std::vector<Frame> stack_;
  TraceRecorder* trace_ = nullptr;
  TraceTid trace_tid_ = 0;
  std::uint64_t trace_epoch_ticks_ = 0;  ///< first scope start (0 = unset)
};

}  // namespace scal::obs
