#include "rms/session.hpp"

#include "rms/factory.hpp"

namespace scal::rms {

grid::SimulationResult SimulationSession::run(const grid::GridConfig& config) {
  if (system_ != nullptr && system_->reset_compatible(config)) {
    system_->reset(config);
  } else {
    grid::GridConfig effective = config;
    // Instrumented runs keep sharing off: adopted trees skip settle work
    // the phase profiler would otherwise count (routes are unaffected).
    effective.share_router_trees =
        tree_sharing_ && config.telemetry == nullptr;
    system_ = std::make_unique<grid::GridSystem>(
        effective, scheduler_factory(effective.rms));
    ++rebuilds_;
  }
  try {
    return system_->run();
  } catch (...) {
    // A run that threw (e.g. a malformed trace row pulled mid-run) left
    // the system half-advanced; the next call must rebuild, not reset.
    system_.reset();
    throw;
  }
}

}  // namespace scal::rms
