#include "core/scaling.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string>

namespace scal::core {

namespace {

/// Calls f(enabler) for every enabler `scase` tunes, in Space order.
template <typename F>
void for_each_tuned(const ScalingCase& scase, F&& f) {
  for (std::size_t i = 0; i < std::size(grid::kEnablers); ++i) {
    if (scase.enablers.test(i)) f(grid::kEnablers[i]);
  }
}

}  // namespace

EnablerSet enabler_set(std::initializer_list<std::string_view> names) {
  EnablerSet set;
  for (const std::string_view name : names) {
    std::size_t i = 0;
    while (i < set.size() && name != grid::kEnablers[i].name) ++i;
    if (i == set.size()) {
      throw std::invalid_argument("enabler_set: unknown enabler '" +
                                  std::string(name) + "'");
    }
    set.set(i);
  }
  return set;
}

std::string to_string(ScalingVariableKind kind) {
  switch (kind) {
    case ScalingVariableKind::kNetworkSize: return "network size";
    case ScalingVariableKind::kServiceRate: return "resource service rate";
    case ScalingVariableKind::kEstimators: return "number of estimators";
    case ScalingVariableKind::kNeighborhood: return "L_p (neighborhood)";
  }
  return "?";
}

ScalingCase ScalingCase::case1_network_size() {
  ScalingCase c;
  c.name = "Case 1: Scaling the RP by network size";
  c.variable = ScalingVariableKind::kNetworkSize;
  return c;
}

ScalingCase ScalingCase::case2_service_rate() {
  ScalingCase c;
  c.name = "Case 2: Scaling the RP by resource service rate";
  c.variable = ScalingVariableKind::kServiceRate;
  return c;
}

ScalingCase ScalingCase::case3_estimators() {
  ScalingCase c;
  c.name = "Case 3: Scaling the RMS by number of status estimators";
  c.variable = ScalingVariableKind::kEstimators;
  return c;
}

ScalingCase ScalingCase::case4_neighborhood() {
  ScalingCase c;
  c.name = "Case 4: Scaling the RMS by L_p";
  c.variable = ScalingVariableKind::kNeighborhood;
  // Table 5: L_p is the scaling variable; the volunteering interval
  // replaces the neighborhood size in the enabler set.
  c.enablers = enabler_set(
      {"update_interval", "link_delay_scale", "volunteer_interval"});
  return c;
}

ScalingCase ScalingCase::with_aggregation() const {
  ScalingCase c = *this;
  for (std::size_t i = 0; i < std::size(grid::kEnablers); ++i) {
    if (grid::kEnablers[i].control_plane) c.enablers.set(i);
  }
  return c;
}

std::vector<std::string> ScalingCase::scaling_variable_rows() const {
  std::vector<std::string> rows;
  switch (variable) {
    case ScalingVariableKind::kNetworkSize:
      rows.push_back(
          "Network size in terms of number of nodes = sizeof[RMS] + "
          "sizeof[RP]");
      break;
    case ScalingVariableKind::kServiceRate:
      rows.push_back(
          "Resource service rate (number of jobs executed per unit time)");
      break;
    case ScalingVariableKind::kEstimators:
      rows.push_back("Number of Status Estimators");
      break;
    case ScalingVariableKind::kNeighborhood:
      rows.push_back(
          "L_p: Number of neighbor schedulers being contacted for load "
          "balancing");
      break;
  }
  rows.push_back("Workload (number of jobs arriving per unit time)");
  return rows;
}

std::vector<std::string> ScalingCase::enabler_rows() const {
  std::vector<const grid::Enabler*> tuned;
  for_each_tuned(*this, [&tuned](const grid::Enabler& e) {
    tuned.push_back(&e);
  });
  std::sort(tuned.begin(), tuned.end(),
            [](const grid::Enabler* a, const grid::Enabler* b) {
              return a->paper_row < b->paper_row;
            });
  std::vector<std::string> rows;
  for (const grid::Enabler* e : tuned) rows.emplace_back(e->row);
  return rows;
}

grid::GridConfig apply_scale(const grid::GridConfig& base,
                             const ScalingCase& scase, double k) {
  if (!(k >= 1.0)) {
    throw std::invalid_argument("apply_scale: scale factor must be >= 1");
  }
  grid::GridConfig scaled = base;
  // The workload always scales with the scaling variable.
  scaled.workload.mean_interarrival = base.workload.mean_interarrival / k;

  switch (scase.variable) {
    case ScalingVariableKind::kNetworkSize:
      scaled.topology.nodes = static_cast<std::size_t>(
          std::llround(static_cast<double>(base.topology.nodes) * k));
      break;
    case ScalingVariableKind::kServiceRate:
      scaled.service_rate = base.service_rate * k;
      break;
    case ScalingVariableKind::kEstimators: {
      // The RP must stay unaltered ("only the RMS is scaled"), so the
      // extra estimator slots are added as new RMS nodes rather than
      // carved out of the resource pool.
      const auto extra_per_cluster = static_cast<std::size_t>(
          std::llround(static_cast<double>(base.estimators_per_cluster) * k)) -
          base.estimators_per_cluster;
      scaled.estimators_per_cluster =
          base.estimators_per_cluster + extra_per_cluster;
      scaled.cluster_size = base.cluster_size + extra_per_cluster;
      scaled.topology.nodes =
          base.topology.nodes + base.cluster_count() * extra_per_cluster;
      break;
    }
    case ScalingVariableKind::kNeighborhood:
      scaled.tuning.neighborhood_size = static_cast<std::uint32_t>(
          std::llround(static_cast<double>(base.tuning.neighborhood_size) * k));
      break;
  }
  return scaled;
}

opt::Space enabler_space(const ScalingCase& scase) {
  std::vector<opt::Variable> vars;
  for_each_tuned(scase, [&vars](const grid::Enabler& e) {
    vars.push_back(opt::Variable{e.name,
                                 e.integer() ? opt::VarKind::kInteger
                                             : opt::VarKind::kContinuous,
                                 e.lo, e.hi, e.log_scale});
  });
  return opt::Space(std::move(vars));
}

grid::Tuning tuning_from_point(const ScalingCase& scase,
                               const grid::Tuning& base,
                               const opt::Point& point) {
  if (point.size() != scase.enablers.count()) {
    throw std::invalid_argument("tuning_from_point: dimension mismatch");
  }
  grid::Tuning t = base;
  std::size_t i = 0;
  for_each_tuned(scase, [&](const grid::Enabler& e) { e.set(t, point[i++]); });
  return t;
}

opt::Point point_from_tuning(const ScalingCase& scase,
                             const grid::Tuning& tuning) {
  opt::Point p;
  for_each_tuned(scase, [&](const grid::Enabler& e) {
    p.push_back(e.get(tuning));
  });
  return p;
}

}  // namespace scal::core
