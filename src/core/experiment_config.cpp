#include "core/experiment_config.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace scal::core {

namespace {

ScalingCase case_from_name(const std::string& name) {
  if (name == "network_size" || name == "case1") {
    return ScalingCase::case1_network_size();
  }
  if (name == "service_rate" || name == "case2") {
    return ScalingCase::case2_service_rate();
  }
  if (name == "estimators" || name == "case3") {
    return ScalingCase::case3_estimators();
  }
  if (name == "neighborhood" || name == "lp" || name == "case4") {
    return ScalingCase::case4_neighborhood();
  }
  throw std::runtime_error("experiment config: unknown scaling case '" +
                           name + "'");
}

std::string case_name(const ScalingCase& scase) {
  switch (scase.variable) {
    case ScalingVariableKind::kNetworkSize: return "network_size";
    case ScalingVariableKind::kServiceRate: return "service_rate";
    case ScalingVariableKind::kEstimators: return "estimators";
    case ScalingVariableKind::kNeighborhood: return "neighborhood";
  }
  return "?";
}

net::TopologyKind topology_from_name(const std::string& name) {
  for (const auto kind :
       {net::TopologyKind::kPreferentialAttachment,
        net::TopologyKind::kWaxman, net::TopologyKind::kRingLattice,
        net::TopologyKind::kStar, net::TopologyKind::kTransitStub}) {
    if (net::to_string(kind) == name) return kind;
  }
  throw std::runtime_error("experiment config: unknown topology '" + name +
                           "'");
}

/// Trimmed comma-separated cells; blank cells are dropped unless
/// `keep_blank`, which keeps them as empty strings.
std::vector<std::string> split_csv(const std::string& text,
                                   bool keep_blank = false) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string cell;
  while (std::getline(in, cell, ',')) {
    // trim
    const auto b = cell.find_first_not_of(" \t");
    const auto e = cell.find_last_not_of(" \t");
    if (b != std::string::npos) {
      out.push_back(cell.substr(b, e - b + 1));
    } else if (keep_blank) {
      out.emplace_back();
    }
  }
  return out;
}

/// One procedure.scale_factors cell, parsed whole: a finite factor >= 1
/// (the rule core::apply_scale enforces).
double scale_factor(const std::string& cell) {
  double v = 0.0;
  const char* end = cell.data() + cell.size();
  const auto [stop, ec] = std::from_chars(cell.data(), end, v);
  if (ec != std::errc{} || stop != end || !std::isfinite(v) || !(v >= 1.0)) {
    throw std::runtime_error(
        "experiment config: procedure.scale_factors cell '" + cell +
        "' is not a finite number >= 1");
  }
  return v;
}

/// An integer key that counts something: it must be >= 0 and fit `T`,
/// so a negative or oversized value is an error rather than a wrapped
/// count.
template <class T>
T get_count(const util::IniFile& ini, const std::string& key, T fallback) {
  const std::int64_t v =
      ini.get_int(key, static_cast<std::int64_t>(fallback));
  if (!std::in_range<T>(v)) {
    throw std::runtime_error(
        "experiment config: " + key + " = " + std::to_string(v) +
        " is not in [0, " +
        std::to_string(std::numeric_limits<T>::max()) + "]");
  }
  return static_cast<T>(v);
}

/// The INI key of an enabler: its name under `tuning.`.  The INI has
/// no grid.control_plane key, so it has none for the control-plane
/// enablers either.
std::string tuning_key(const grid::Enabler& e) {
  return std::string("tuning.") + e.name;
}

/// The complete key vocabulary, used to reject typos.
const std::set<std::string>& known_keys() {
  static const std::set<std::string> keys = [] {
    std::set<std::string> k = {
      "grid.nodes", "grid.topology", "grid.cluster_size",
      "grid.estimators_per_cluster", "grid.service_rate", "grid.rms",
      "grid.seed", "grid.horizon", "grid.update_suppression",
      "grid.trace_path", "grid.heterogeneity",
      "grid.control_loss_probability", "grid.job_log",
      "grid.job_log_capacity", "grid.result_mode",
      "workload.mean_interarrival", "workload.t_cpu",
      "workload.benefit_lo", "workload.benefit_hi",
      "workload.diurnal_amplitude", "workload.diurnal_period",
      "workload.origin_hotspot_weight",
      "procedure.case", "procedure.scale_factors",
      "procedure.chain_warm_start", "procedure.warm_evaluations",
      "tuner.e0", "tuner.band", "tuner.evaluations", "tuner.restarts",
      "tuner.penalty_weight", "tuner.seed",
      "experiment.rms_kinds", "experiment.csv_path",
    };
    for (const grid::Enabler& e : grid::kEnablers) {
      if (!e.control_plane) k.insert(tuning_key(e));
    }
    return k;
  }();
  return keys;
}

}  // namespace

ExperimentConfig experiment_from_ini(const util::IniFile& ini) {
  for (const auto& [key, value] : ini.values()) {
    (void)value;
    if (known_keys().count(key) == 0) {
      throw std::runtime_error("experiment config: unknown key '" + key +
                               "'");
    }
  }

  ExperimentConfig config;
  grid::GridConfig& g = config.grid;
  g.topology.nodes = get_count(ini, "grid.nodes", g.topology.nodes);
  if (const auto topo = ini.get("grid.topology")) {
    g.topology.kind = topology_from_name(*topo);
  }
  g.cluster_size = get_count(ini, "grid.cluster_size", g.cluster_size);
  g.estimators_per_cluster = get_count(ini, "grid.estimators_per_cluster",
                                       g.estimators_per_cluster);
  g.service_rate = ini.get_double("grid.service_rate", g.service_rate);
  if (const auto rms = ini.get("grid.rms")) {
    g.rms = grid::rms_from_string(*rms);
  }
  g.seed = static_cast<std::uint64_t>(
      ini.get_int("grid.seed", static_cast<std::int64_t>(g.seed)));
  g.horizon = ini.get_double("grid.horizon", g.horizon);
  g.update_suppression =
      ini.get_bool("grid.update_suppression", g.update_suppression);
  // The trace source's INI spelling.
  if (const auto trace = ini.get("grid.trace_path"); trace && !trace->empty()) {
    g.workload_source = workload::SourceSpec::parse("trace:" + *trace);
  }
  g.heterogeneity = ini.get_double("grid.heterogeneity", g.heterogeneity);
  g.control_loss_probability = ini.get_double(
      "grid.control_loss_probability", g.control_loss_probability);
  g.job_log = ini.get_bool("grid.job_log", g.job_log);
  g.job_log_capacity =
      get_count(ini, "grid.job_log_capacity", g.job_log_capacity);
  if (const auto mode = ini.get("grid.result_mode")) {
    g.result_mode = grid::result_mode_from_string(*mode);
  }

  auto& wl = g.workload;
  wl.mean_interarrival =
      ini.get_double("workload.mean_interarrival", wl.mean_interarrival);
  wl.t_cpu = ini.get_double("workload.t_cpu", wl.t_cpu);
  wl.benefit_lo = ini.get_double("workload.benefit_lo", wl.benefit_lo);
  wl.benefit_hi = ini.get_double("workload.benefit_hi", wl.benefit_hi);
  wl.diurnal_amplitude =
      ini.get_double("workload.diurnal_amplitude", wl.diurnal_amplitude);
  wl.diurnal_period =
      ini.get_double("workload.diurnal_period", wl.diurnal_period);
  wl.origin_hotspot_weight = ini.get_double("workload.origin_hotspot_weight",
                                            wl.origin_hotspot_weight);

  for (const grid::Enabler& e : grid::kEnablers) {
    if (e.control_plane) continue;
    if (e.integer()) {
      g.tuning.*e.count = get_count(ini, tuning_key(e), g.tuning.*e.count);
    } else {
      g.tuning.*e.real = ini.get_double(tuning_key(e), g.tuning.*e.real);
    }
  }

  ProcedureConfig& p = config.procedure;
  p.scase = case_from_name(ini.get_string("procedure.case", "case1"));
  if (const auto factors = ini.get("procedure.scale_factors")) {
    p.scale_factors.clear();
    for (const std::string& cell : split_csv(*factors, true)) {
      p.scale_factors.push_back(scale_factor(cell));
    }
    if (p.scale_factors.empty()) {
      throw std::runtime_error(
          "experiment config: empty procedure.scale_factors");
    }
  }
  p.chain_warm_start =
      ini.get_bool("procedure.chain_warm_start", p.chain_warm_start);
  p.warm_evaluations =
      get_count(ini, "procedure.warm_evaluations", p.warm_evaluations);
  p.tuner.e0 = ini.get_double("tuner.e0", p.tuner.e0);
  p.tuner.band = ini.get_double("tuner.band", p.tuner.band);
  p.tuner.evaluations =
      get_count(ini, "tuner.evaluations", p.tuner.evaluations);
  p.tuner.restarts = get_count(ini, "tuner.restarts", p.tuner.restarts);
  p.tuner.penalty_weight =
      ini.get_double("tuner.penalty_weight", p.tuner.penalty_weight);
  p.tuner.seed = static_cast<std::uint64_t>(ini.get_int(
      "tuner.seed", static_cast<std::int64_t>(p.tuner.seed)));

  if (const auto kinds = ini.get("experiment.rms_kinds")) {
    for (const std::string& name : split_csv(*kinds)) {
      config.kinds.push_back(grid::rms_from_string(name));
    }
  }
  config.csv_path = ini.get_string("experiment.csv_path", "");
  return config;
}

ExperimentConfig load_experiment(const std::string& path) {
  return experiment_from_ini(util::IniFile::load(path));
}

util::IniFile experiment_to_ini(const ExperimentConfig& config) {
  util::IniFile ini;
  const grid::GridConfig& g = config.grid;
  ini.set_int("grid.nodes", static_cast<std::int64_t>(g.topology.nodes));
  ini.set("grid.topology", net::to_string(g.topology.kind));
  ini.set_int("grid.cluster_size",
              static_cast<std::int64_t>(g.cluster_size));
  ini.set_int("grid.estimators_per_cluster",
              static_cast<std::int64_t>(g.estimators_per_cluster));
  ini.set_double("grid.service_rate", g.service_rate);
  ini.set("grid.rms", grid::to_string(g.rms));
  ini.set_int("grid.seed", static_cast<std::int64_t>(g.seed));
  ini.set_double("grid.horizon", g.horizon);
  ini.set_bool("grid.update_suppression", g.update_suppression);
  if (g.workload_source.kind == workload::SourceKind::kTrace &&
      g.workload_source.modulators.empty()) {
    ini.set("grid.trace_path", g.workload_source.path);
  }
  ini.set_double("grid.heterogeneity", g.heterogeneity);
  ini.set_double("grid.control_loss_probability",
                 g.control_loss_probability);
  ini.set_bool("grid.job_log", g.job_log);
  if (g.job_log_capacity > 0) {
    ini.set_int("grid.job_log_capacity",
                static_cast<std::int64_t>(g.job_log_capacity));
  }
  if (g.result_mode != grid::ResultMode::kFull) {
    ini.set("grid.result_mode", grid::to_string(g.result_mode));
  }

  ini.set_double("workload.mean_interarrival",
                 g.workload.mean_interarrival);
  ini.set_double("workload.t_cpu", g.workload.t_cpu);
  ini.set_double("workload.benefit_lo", g.workload.benefit_lo);
  ini.set_double("workload.benefit_hi", g.workload.benefit_hi);
  ini.set_double("workload.diurnal_amplitude",
                 g.workload.diurnal_amplitude);
  ini.set_double("workload.diurnal_period", g.workload.diurnal_period);
  ini.set_double("workload.origin_hotspot_weight",
                 g.workload.origin_hotspot_weight);

  for (const grid::Enabler& e : grid::kEnablers) {
    if (e.control_plane) continue;
    if (e.integer()) {
      ini.set_int(tuning_key(e), static_cast<std::int64_t>(g.tuning.*e.count));
    } else {
      ini.set_double(tuning_key(e), g.tuning.*e.real);
    }
  }

  const ProcedureConfig& p = config.procedure;
  ini.set("procedure.case", case_name(p.scase));
  std::ostringstream factors;
  for (std::size_t i = 0; i < p.scale_factors.size(); ++i) {
    if (i) factors << ", ";
    factors << p.scale_factors[i];
  }
  ini.set("procedure.scale_factors", factors.str());
  ini.set_bool("procedure.chain_warm_start", p.chain_warm_start);
  ini.set_int("procedure.warm_evaluations",
              static_cast<std::int64_t>(p.warm_evaluations));
  ini.set_double("tuner.e0", p.tuner.e0);
  ini.set_double("tuner.band", p.tuner.band);
  ini.set_int("tuner.evaluations",
              static_cast<std::int64_t>(p.tuner.evaluations));
  ini.set_int("tuner.restarts",
              static_cast<std::int64_t>(p.tuner.restarts));
  ini.set_double("tuner.penalty_weight", p.tuner.penalty_weight);
  ini.set_int("tuner.seed", static_cast<std::int64_t>(p.tuner.seed));

  if (!config.kinds.empty()) {
    std::ostringstream kinds;
    for (std::size_t i = 0; i < config.kinds.size(); ++i) {
      if (i) kinds << ", ";
      kinds << grid::to_string(config.kinds[i]);
    }
    ini.set("experiment.rms_kinds", kinds.str());
  }
  if (!config.csv_path.empty()) {
    ini.set("experiment.csv_path", config.csv_path);
  }
  return ini;
}

}  // namespace scal::core
