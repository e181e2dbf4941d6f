#pragma once
// The policy factory behind scal::Scenario (rms/scenario.hpp): maps an
// RMS kind from the paper onto its scheduler class.

#include <memory>

#include "grid/system.hpp"

namespace scal::rms {

/// Factory creating policy schedulers of the given kind.
grid::SchedulerFactory scheduler_factory(grid::RmsKind kind);

}  // namespace scal::rms
