#include "grid/config.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/telemetry.hpp"

namespace scal::grid {

std::string to_string(RmsKind kind) {
  switch (kind) {
    case RmsKind::kCentral: return "CENTRAL";
    case RmsKind::kLowest: return "LOWEST";
    case RmsKind::kReserve: return "RESERVE";
    case RmsKind::kAuction: return "AUCTION";
    case RmsKind::kSenderInitiated: return "S-I";
    case RmsKind::kReceiverInitiated: return "R-I";
    case RmsKind::kSymmetric: return "Sy-I";
    case RmsKind::kHierarchical: return "HIER";
    case RmsKind::kRandom: return "RANDOM";
  }
  return "?";
}

RmsKind rms_from_string(const std::string& name) {
  for (const RmsKind kind : kAllRmsKinds) {
    if (to_string(kind) == name) return kind;
  }
  if (name == "HIER") return RmsKind::kHierarchical;
  if (name == "RANDOM") return RmsKind::kRandom;
  throw std::invalid_argument("rms_from_string: unknown RMS '" + name + "'");
}

void GridConfig::validate() const {
  if (topology.nodes < 4) {
    throw std::invalid_argument("GridConfig: need at least 4 nodes");
  }
  if (cluster_size < 3) {
    throw std::invalid_argument(
        "GridConfig: cluster needs scheduler + estimator + resource");
  }
  if (estimators_per_cluster == 0) {
    throw std::invalid_argument("GridConfig: need >= 1 estimator per cluster");
  }
  if (estimators_per_cluster + 2 > cluster_size) {
    throw std::invalid_argument(
        "GridConfig: estimators leave no room for resources");
  }
  if (!(service_rate > 0.0)) {
    throw std::invalid_argument("GridConfig: service rate must be positive");
  }
  if (!(heterogeneity >= 0.0) || heterogeneity > 0.9) {
    throw std::invalid_argument(
        "GridConfig: heterogeneity must be in [0, 0.9]");
  }
  if (!(horizon > 0.0)) {
    throw std::invalid_argument("GridConfig: horizon must be positive");
  }
  if (!(tuning.update_interval > 0.0) || tuning.neighborhood_size == 0 ||
      !(tuning.link_delay_scale > 0.0) ||
      !std::isfinite(tuning.link_delay_scale) ||
      !(tuning.volunteer_interval > 0.0)) {
    throw std::invalid_argument("GridConfig: bad tuning values");
  }
  const auto check_periods = [this](double interval, const char* field) {
    if (!std::isfinite(interval) ||
        !(horizon / interval <= kMaxPeriodsPerHorizon)) {
      throw std::invalid_argument(
          std::string("GridConfig: ") + field +
          " must be finite with at most 2^24 periods over the horizon "
          "(horizon / interval <= 16777216)");
    }
  };
  check_periods(tuning.update_interval, "tuning.update_interval");
  check_periods(tuning.volunteer_interval, "tuning.volunteer_interval");
  if (telemetry != nullptr && telemetry->probe() != nullptr) {
    check_periods(telemetry->probe()->interval(), "telemetry probe_interval");
  }
  if (tuning.agg_fanout == 0 || tuning.agg_fanout > 64 ||
      tuning.agg_batch == 0 || tuning.agg_batch > 4096 ||
      !(tuning.agg_flush >= 0.0)) {
    throw std::invalid_argument("GridConfig: bad aggregation tuning values");
  }
  if (!(costs.ctrl_process_update >= 0.0) ||
      !(costs.ctrl_forward_batch >= 0.0)) {
    throw std::invalid_argument(
        "GridConfig: aggregator costs must be non-negative");
  }
  if (!(protocol.t_l > 0.0 && protocol.t_l < 1.0) ||
      !(protocol.delta > 0.0 && protocol.delta <= 1.0)) {
    throw std::invalid_argument("GridConfig: thresholds must be in (0,1)");
  }
  if (!(control_loss_probability >= 0.0) ||
      !(control_loss_probability < 1.0)) {
    throw std::invalid_argument(
        "GridConfig: control loss probability must be in [0, 1)");
  }
  if (!(protocol.reply_timeout > 0.0)) {
    throw std::invalid_argument("GridConfig: reply timeout must be positive");
  }
  faults.validate();
  workload_source.validate();
}

std::size_t GridConfig::cluster_count() const {
  return std::max<std::size_t>(1, topology.nodes / cluster_size);
}

}  // namespace scal::grid
