#include "obs/telemetry.hpp"

#include <chrono>

#include "obs/json.hpp"

namespace scal::obs {

namespace {
double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

Telemetry::Telemetry(TelemetryConfig config)
    : config_(std::move(config)),
      // A probe path with a bad interval throws here (TimeSeriesProbe);
      // without a path the interval is unused.
      probe_(config_.probe_enabled() ? config_.probe_interval : 1.0),
      probe_enabled_(config_.probe_enabled()) {
  trace_.set_enabled(config_.trace_enabled());
  profiler_.set_enabled(config_.metrics_enabled());
  manifest_.label = config_.label;
  manifest_.git_version = git_describe();
}

void Telemetry::mark_run_start() {
  manifest_.started_at = utc_timestamp();
  run_started_wall_ = monotonic_seconds();
}

void Telemetry::mark_run_end() {
  if (run_started_wall_ > 0.0) {
    manifest_.wall_seconds = monotonic_seconds() - run_started_wall_;
  }
}

bool Telemetry::export_all() const {
  bool ok = true;
  if (config_.trace_enabled()) {
    ok = trace_.write_file(config_.trace_path) && ok;
  }
  if (config_.probe_enabled()) {
    ok = probe_.write_file(config_.probe_path) && ok;
  }
  if (config_.manifest_enabled()) {
    RunManifest m = manifest_;
    if (config_.metrics_enabled() &&
        (!histograms_.all_empty() || !profiler_.phases().empty())) {
      JsonObject metrics;
      metrics.raw("histograms", histograms_.to_json());
      metrics.raw("phases", profiler_.to_json());
      m.metrics_json = metrics.str();
    }
    m.anneal_iterations = anneal_.size();
    m.anneal_accepted = anneal_.accepted_count();
    m.anneal_improving = anneal_.improving_count();
    m.anneal_best_objective = anneal_.best_value();
    ok = m.append_jsonl(config_.manifest_path) && ok;
  }
  if (config_.anneal_enabled()) {
    ok = anneal_.write_file(config_.anneal_path) && ok;
  }
  return ok;
}

}  // namespace scal::obs
