#include "rms/session.hpp"

#include "grid/digest.hpp"
#include "rms/factory.hpp"

namespace scal::rms {

grid::SimulationResult SimulationSession::run(const grid::GridConfig& config) {
  if (config.telemetry != nullptr) {
    ++rebuilds_;
    return grid::GridSystem(config, scheduler_factory(config.rms)).run();
  }
  if (site_ == nullptr || site_->key() != grid::site_digest(config)) {
    site_.reset();  // free the old routes before settling new ones
    site_ = std::make_unique<grid::Site>(config);
    site_->router().share_trees();
    ++rebuilds_;
  }
  return grid::GridSystem(*site_, config, scheduler_factory(config.rms)).run();
}

}  // namespace scal::rms
