#pragma once
// Scaling strategies: the x(k) scaling variables and y(k) scaling
// enablers of the paper's four experimental cases (Tables 2-5).
//
//   Case 1  scale the RP by network size (RMS grows proportionately)
//   Case 2  scale the RP by resource service rate
//   Case 3  scale the RMS by number of status estimators
//   Case 4  scale the RMS by L_p (neighbors probed/polled)
//
// In every case the workload (job arrival rate) scales in the same
// proportion as the scaling variable, as the paper prescribes.

#include <bitset>
#include <initializer_list>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "grid/config.hpp"
#include "opt/space.hpp"

namespace scal::core {

enum class ScalingVariableKind {
  kNetworkSize,   // Case 1
  kServiceRate,   // Case 2
  kEstimators,    // Case 3
  kNeighborhood,  // Case 4 (L_p)
};

std::string to_string(ScalingVariableKind kind);

/// A set of grid::kEnablers rows: bit i stands for kEnablers[i].
using EnablerSet = std::bitset<std::size(grid::kEnablers)>;

/// The rows with these names; an unknown name throws
/// std::invalid_argument.
EnablerSet enabler_set(std::initializer_list<std::string_view> names);

struct ScalingCase {
  std::string name;
  ScalingVariableKind variable = ScalingVariableKind::kNetworkSize;
  /// The enablers the tuner adjusts: Tables 2-4's unless a case says
  /// otherwise.
  EnablerSet enablers = enabler_set(
      {"update_interval", "neighborhood_size", "link_delay_scale"});

  /// The paper's four cases, with the enabler sets of Tables 2-5
  /// (Cases 1-3: update interval, neighborhood size, link delay;
  ///  Case 4: update interval, volunteering interval, link delay).
  static ScalingCase case1_network_size();
  static ScalingCase case2_service_rate();
  static ScalingCase case3_estimators();
  static ScalingCase case4_neighborhood();

  /// This case with the control-plane enablers (the aggregation tree's
  /// fan-out, batch size and flush interval) switched on: the
  /// ext_aggregation experiment; requires GridConfig::control_plane.
  ScalingCase with_aggregation() const;

  /// Human-readable scaling-variable and enabler lists (Tables 2-5 rows,
  /// in the paper's order).
  std::vector<std::string> scaling_variable_rows() const;
  std::vector<std::string> enabler_rows() const;
};

/// Apply scale factor `k >= 1` to a base configuration.  Scales the
/// designated scaling variable and the workload arrival rate; leaves the
/// enablers at their current values (the tuner adjusts those).
grid::GridConfig apply_scale(const grid::GridConfig& base,
                             const ScalingCase& scase, double k);

/// The optimizer search space for this case's enablers.
opt::Space enabler_space(const ScalingCase& scase);

/// Convert between optimizer points and grid tunings.  `point` layout
/// follows enabler_space()'s variable order.
grid::Tuning tuning_from_point(const ScalingCase& scase,
                               const grid::Tuning& base,
                               const opt::Point& point);
opt::Point point_from_tuning(const ScalingCase& scase,
                             const grid::Tuning& tuning);

}  // namespace scal::core
