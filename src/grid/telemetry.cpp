#include "grid/telemetry.hpp"

#include <cstdint>
#include <string>
#include <type_traits>
#include <unordered_set>

#include "obs/json.hpp"
#include "workload/arrival_cache.hpp"

namespace scal::grid {

void export_job_spans(const JobLog& log, obs::TraceRecorder& trace,
                      obs::TraceTid tid, double horizon) {
  std::unordered_set<workload::JobId> open;
  for (const JobLogRecord& rec : log.records()) {
    switch (rec.event) {
      case JobEvent::kArrival:
        trace.async_begin(tid, rec.job, "job", "job", rec.at);
        open.insert(rec.job);
        break;
      case JobEvent::kComplete:
        trace.async_end(tid, rec.job, "job", rec.at);
        open.erase(rec.job);
        break;
      case JobEvent::kTransfer:
      case JobEvent::kDispatch:
      case JobEvent::kStart:
      case JobEvent::kKilled:
        trace.async_instant(tid, rec.job, to_string(rec.event), "job",
                            rec.at);
        break;
    }
  }
  for (const workload::JobId job : open) {
    trace.async_end(tid, job, "job", horizon);
  }
}

namespace {

/// One manifest value: integers as integers, doubles in shortest
/// round-trip form, the result mode by name.
template <typename T>
void put(obs::JsonObject& obj, const char* key, const T& value) {
  if constexpr (std::is_same_v<T, ResultMode>) {
    obj.field(key, to_string(value));
  } else if constexpr (std::is_same_v<T, bool>) {
    obj.field(key, value);
  } else if constexpr (std::is_integral_v<T>) {
    obj.field(key, static_cast<std::uint64_t>(value));
  } else {
    obj.field(key, static_cast<double>(value));
  }
}

/// Calls f(key, value) for every schema row of block B, in row order.
template <ManifestBlock B, typename F>
void for_each_row(const SimulationResult& r, F&& f) {
#define SCAL_ROW(block, key, value) \
  if constexpr (ManifestBlock::block == B) f(key, value);
#define SCAL_FIELD_ROW(type, name, init, block, key) \
  SCAL_ROW(block, key, r.name)
#define SCAL_DERIVED_ROW(expr, block, key) SCAL_ROW(block, key, r.expr)
  SCAL_RESULT_SCHEMA(SCAL_FIELD_ROW, SCAL_DERIVED_ROW)
#undef SCAL_ROW
#undef SCAL_FIELD_ROW
#undef SCAL_DERIVED_ROW
}

template <ManifestBlock B>
void put_rows(obs::JsonObject& obj, const SimulationResult& r) {
  for_each_row<B>(r, [&obj](const char* key, const auto& value) {
    put(obj, key, value);
  });
}

template <ManifestBlock B>
std::string block_json(const SimulationResult& r) {
  obs::JsonObject obj;
  put_rows<B>(obj, r);
  return obj.str();
}

std::string config_json(const GridConfig& config) {
  obs::JsonObject obj;
  obj.field("rms", to_string(config.rms));
  put(obj, "seed", config.seed);
  put(obj, "horizon", config.horizon);
  put(obj, "nodes", config.topology.nodes);
  put(obj, "clusters", config.cluster_count());
  put(obj, "estimators_per_cluster", config.estimators_per_cluster);
  put(obj, "service_rate", config.service_rate);
  put(obj, "heterogeneity", config.heterogeneity);
  put(obj, "control_loss_probability", config.control_loss_probability);
  put(obj, "mean_interarrival", config.workload.mean_interarrival);
  obs::JsonObject tuning;
  for (const Enabler& e : kEnablers) {
    if (e.control_plane && !config.control_plane) continue;
    if (e.integer()) {
      put(tuning, e.name, config.tuning.*e.count);
    } else {
      put(tuning, e.name, config.tuning.*e.real);
    }
  }
  obj.raw("tuning", tuning.str());
  if (config.control_plane) obj.field("control_plane", true);
  return obj.str();
}

}  // namespace

void fill_manifest(obs::RunManifest& manifest, const GridConfig& config,
                   const SimulationResult& result) {
  using B = ManifestBlock;
  auto& blocks = manifest.run_blocks;
  blocks.clear();
  blocks.emplace_back("config", config_json(config));
  blocks.emplace_back("result", block_json<B::kResult>(result));

  // Each conditional block appears only when its feature ran, so
  // manifests of runs without it keep their earlier byte layout.
  const std::string fault_spec = config.faults.to_spec();
  if (!fault_spec.empty()) {
    obs::JsonObject faults;
    faults.field("spec", fault_spec);
    put_rows<B::kFaults>(faults, result);
    blocks.emplace_back("faults", faults.str());
  }
  if (!config.workload_source.is_default()) {
    obs::JsonObject workload;
    workload.field("source", config.workload_source.summary());
    put_rows<B::kWorkload>(workload, result);
    // Process-wide provenance, not a property of this run.
    workload.field("arrival_cache_hits",
                   workload::ArrivalCache::instance().hits());
    for_each_row<B::kWorkloadCache>(
        result, [&workload](const char* key, std::uint64_t value) {
          if (value > 0) workload.field(key, value);
        });
    blocks.emplace_back("workload", workload.str());
  }
  if (result.result_mode == ResultMode::kStreaming) {
    blocks.emplace_back("memory", block_json<B::kMemory>(result));
  }
  if (config.control_plane) {
    blocks.emplace_back("ctrl", block_json<B::kCtrl>(result));
  }

  obs::JsonObject counters;
  put_rows<B::kCounters>(counters, result);
  if (!fault_spec.empty()) {
    put_rows<B::kFaultCounters>(counters, result);
    // Gated one level deeper so earlier fault manifests also keep
    // their exact counter set.
    if (config.faults.aggregator_blackout.enabled()) {
      put_rows<B::kBlackoutCounters>(counters, result);
    }
  }
  blocks.emplace_back("counters", counters.str());
}

}  // namespace scal::grid
