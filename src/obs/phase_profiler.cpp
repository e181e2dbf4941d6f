#include "obs/phase_profiler.hpp"

#include <chrono>

#include "obs/json.hpp"

namespace scal::obs {

std::uint64_t PhaseProfiler::fallback_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double PhaseProfiler::ns_per_tick() {
#if defined(__x86_64__) || defined(__i386__) || defined(__aarch64__)
  // Calibrate the cycle counter against the steady clock once per
  // process: a ~50us spin bounds the scale error well below the
  // bucket-level noise of any profiled phase.
  static const double scale = [] {
    const std::uint64_t ns0 = fallback_now_ns();
    const std::uint64_t t0 = read_ticks();
    std::uint64_t ns1 = ns0;
    while (ns1 - ns0 < 50'000) ns1 = fallback_now_ns();
    const std::uint64_t t1 = read_ticks();
    return t1 > t0 ? static_cast<double>(ns1 - ns0) /
                         static_cast<double>(t1 - t0)
                   : 1.0;
  }();
  return scale;
#else
  return 1.0;  // read_ticks falls back to nanoseconds directly
#endif
}

void PhaseProfiler::mirror_to_trace(const Frame& frame,
                                    std::uint64_t elapsed_ns) {
  const std::uint64_t since_epoch_ticks =
      frame.start_ticks > trace_epoch_ticks_
          ? frame.start_ticks - trace_epoch_ticks_
          : 0;
  trace_->complete(
      trace_tid_, phases_[frame.id].name.c_str(), "profiler",
      static_cast<double>(since_epoch_ticks) * scale_ / 1000.0,
      static_cast<double>(elapsed_ns) / 1000.0);
}

PhaseId PhaseProfiler::phase(const std::string& name) {
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (phases_[i].name == name) return static_cast<PhaseId>(i);
  }
  phases_.push_back(PhaseStats{name, 0, 0, 0});
  return static_cast<PhaseId>(phases_.size() - 1);
}

void PhaseProfiler::merge(const PhaseProfiler& other) {
  for (const PhaseStats& theirs : other.phases_) {
    PhaseStats& mine = phases_[phase(theirs.name)];
    mine.calls += theirs.calls;
    mine.total_ns += theirs.total_ns;
    mine.self_ns += theirs.self_ns;
  }
}

std::string PhaseProfiler::to_json() const {
  JsonObject obj;
  for (const PhaseStats& stats : phases_) {
    JsonObject entry;
    entry.field("calls", stats.calls)
        .field("total_ns", stats.total_ns)
        .field("self_ns", stats.self_ns);
    obj.raw(stats.name, entry.str());
  }
  return obj.str();
}

std::string PhaseProfiler::counts_json() const {
  JsonObject obj;
  for (const PhaseStats& stats : phases_) {
    obj.field(stats.name, stats.calls);
  }
  return obj.str();
}

}  // namespace scal::obs
