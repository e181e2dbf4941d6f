#pragma once
// scal::Scenario — the one-stop run facade.
//
// A Scenario bundles everything one simulation run needs — the
// grid::GridConfig, the telemetry handle, the fault plan and the policy
// factory — behind a chainable builder, so callers stop hand-wiring the
// plumbing:
//
//   auto result = Scenario(bench::case1_base())
//                     .rms(grid::RmsKind::kLowest)
//                     .seed(7)
//                     .faults("churn:mtbf=400,mttr=40")
//                     .telemetry(&telemetry)
//                     .run();
//
// Every setter returns *this; anything without a dedicated setter is
// reachable through config().  build() hands back the wired GridSystem
// for callers that need mid-run access (samplers, job logs); run() is
// build()->run() for everyone else.

#include <memory>
#include <string>
#include <vector>

#include "grid/system.hpp"

namespace scal::exec {
class ThreadPool;
}

namespace scal {

class Scenario {
 public:
  Scenario() = default;
  explicit Scenario(grid::GridConfig config) : config_(std::move(config)) {}

  // -- Chainable setters for the common knobs.
  Scenario& rms(grid::RmsKind kind) {
    config_.rms = kind;
    return *this;
  }
  Scenario& nodes(std::size_t n) {
    config_.topology.nodes = n;
    return *this;
  }
  Scenario& seed(std::uint64_t value) {
    config_.seed = value;
    return *this;
  }
  Scenario& horizon(double time_units) {
    config_.horizon = time_units;
    return *this;
  }
  /// Non-owning telemetry handle; null turns instrumentation off.
  Scenario& telemetry(obs::Telemetry* handle) {
    config_.telemetry = handle;
    return *this;
  }
  Scenario& faults(fault::FaultPlan plan) {
    config_.faults = std::move(plan);
    return *this;
  }
  /// Fault plan from its spec grammar (docs/FAULTS.md), e.g.
  /// "churn:mtbf=400,mttr=40;net:drop=0.02".  Throws on a bad spec.
  Scenario& faults(const std::string& spec);
  /// Workload source (docs/WORKLOADS.md); default = the synthetic
  /// generator the paper's figures run on.
  Scenario& workload(workload::SourceSpec spec) {
    config_.workload_source = std::move(spec);
    return *this;
  }
  /// Workload source from its spec grammar, e.g. "swf:trace.swf@0.01"
  /// or "synthetic".  Throws on a bad spec.
  Scenario& workload(const std::string& spec);
  /// Append one load-modulator stage to the source's chain, e.g.
  /// "diurnal:amplitude=0.6,period=500" (docs/WORKLOADS.md grammar).
  /// Chainable: each call appends; stages apply in call order.  Throws
  /// on a bad spec.
  Scenario& modulate(const std::string& spec);
  /// Select the memory tier (docs/PERFORMANCE.md): kFull keeps exact
  /// per-job samples, kStreaming folds results online in O(1) memory —
  /// the million-job path.
  Scenario& result_mode(grid::ResultMode mode) {
    config_.result_mode = mode;
    return *this;
  }
  /// Memory tier from its name ("full" | "streaming").  Throws on a
  /// bad name.
  Scenario& result_mode(const std::string& name) {
    config_.result_mode = grid::result_mode_from_string(name);
    return *this;
  }
  /// Record per-job lifecycle events, optionally bounded at `capacity`
  /// records (0 = unbounded; overflow is counted, not stored).
  Scenario& job_log(bool enabled, std::size_t capacity = 0) {
    config_.job_log = enabled;
    config_.job_log_capacity = capacity;
    return *this;
  }
  /// Custom policy factory (see examples/custom_rms.cpp); when unset,
  /// build() uses rms::scheduler_factory(config().rms).
  Scenario& scheduler(grid::SchedulerFactory factory) {
    factory_ = std::move(factory);
    return *this;
  }
  // -- Full-config escape hatch.
  grid::GridConfig& config() noexcept { return config_; }
  const grid::GridConfig& config() const noexcept { return config_; }

  /// Validate the config and wire the full system.  The Scenario can be
  /// reused: every call builds a fresh, independent system.
  std::unique_ptr<grid::GridSystem> build() const;

  /// build()->run(): one simulation to the horizon.
  grid::SimulationResult run() const;

  /// Run one scenario per RMS kind (the paper's Section 3.3 lineup),
  /// returned in `kinds` order.  Deterministic and bit-identical
  /// whether `workers` is null (serial) or a pool.
  static std::vector<grid::SimulationResult> run_kinds(
      const Scenario& base, const std::vector<grid::RmsKind>& kinds,
      exec::ThreadPool* workers = nullptr);

 private:
  grid::GridConfig config_{};
  grid::SchedulerFactory factory_;  // empty = by config_.rms
};

}  // namespace scal
