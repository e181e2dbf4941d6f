#pragma once
// Telemetry: the per-run observability handle.  One Telemetry object is
// created by the caller (bench, example, test), attached to a
// GridConfig, and threaded by the grid layer through the simulator, the
// servers, and the metrics assembly.  After the run, export_all() writes
// every configured artifact:
//
//   trace_path     Chrome trace_event JSON (Perfetto-loadable)
//   probe_path     time-series CSV on probe_interval cadence
//   manifest_path  one JSONL record (config + counters + results)
//   anneal_path    per-iteration tuner telemetry CSV
//
// A Telemetry instance describes ONE instrumented run; reuse across runs
// concatenates their events.  The handle is non-owning from the config's
// point of view (GridConfig carries a raw pointer, null by default), so
// the zero-telemetry path costs a null check and nothing else.

#include <string>

#include "obs/anneal_log.hpp"
#include "obs/histogram.hpp"
#include "obs/manifest.hpp"
#include "obs/phase_profiler.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"

namespace scal::obs {

struct TelemetryConfig {
  /// Chrome trace JSON output; empty disables tracing.  A trace holds
  /// scheduler/estimator/middleware busy spans, per-protocol message
  /// instants, job lifecycle async spans (the run keeps a job log) and
  /// kernel counters sampled every 256 fired events; one sim time unit
  /// renders as 1 ms.
  std::string trace_path;

  /// Time-series CSV output; empty disables the probe.  With a path
  /// the interval must be finite and positive (Telemetry throws
  /// otherwise).
  std::string probe_path;
  double probe_interval = 0.0;

  /// JSONL manifest output (appended); empty disables.
  std::string manifest_path;

  /// Annealing telemetry CSV; empty disables.
  std::string anneal_path;

  /// Label recorded in the manifest and anneal rows.
  std::string label;

  /// Distribution metrics + phase profiler: streaming histograms of job
  /// wait/response/slowdown, scheduler queue depth at decision points,
  /// estimator staleness, and scoped phase timers.  Off by default so
  /// existing golden artifacts stay byte-identical.
  bool metrics = false;

  bool trace_enabled() const noexcept { return !trace_path.empty(); }
  bool probe_enabled() const noexcept { return !probe_path.empty(); }
  bool manifest_enabled() const noexcept { return !manifest_path.empty(); }
  bool anneal_enabled() const noexcept { return !anneal_path.empty(); }
  bool metrics_enabled() const noexcept { return metrics; }
  bool any_enabled() const noexcept {
    return trace_enabled() || probe_enabled() || manifest_enabled() ||
           anneal_enabled() || metrics_enabled();
  }
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig config);

  const TelemetryConfig& config() const noexcept { return config_; }

  TraceRecorder& trace() noexcept { return trace_; }
  const TraceRecorder& trace() const noexcept { return trace_; }
  /// Null when the probe is not configured.
  TimeSeriesProbe* probe() noexcept { return probe_enabled_ ? &probe_ : nullptr; }
  const TimeSeriesProbe* probe() const noexcept {
    return probe_enabled_ ? &probe_ : nullptr;
  }
  RunManifest& manifest() noexcept { return manifest_; }
  const RunManifest& manifest() const noexcept { return manifest_; }
  AnnealLog& anneal() noexcept { return anneal_; }
  const AnnealLog& anneal() const noexcept { return anneal_; }
  /// Distribution metrics (populated only when config().metrics).
  HistogramRegistry& histograms() noexcept { return histograms_; }
  const HistogramRegistry& histograms() const noexcept { return histograms_; }
  /// Phase profiler (enabled iff config().metrics).
  PhaseProfiler& profiler() noexcept { return profiler_; }
  const PhaseProfiler& profiler() const noexcept { return profiler_; }

  /// Stamp the run start (wall clock); called by GridSystem::run().
  void mark_run_start();
  /// Stamp the run end; fills manifest wall_seconds.
  void mark_run_end();

  /// Write every configured artifact.  Returns true when all writes
  /// succeeded; failures are logged and do not abort the others.
  bool export_all() const;

 private:
  TelemetryConfig config_;
  TraceRecorder trace_;
  TimeSeriesProbe probe_;
  bool probe_enabled_ = false;
  RunManifest manifest_;
  AnnealLog anneal_;
  HistogramRegistry histograms_;
  PhaseProfiler profiler_;
  double run_started_wall_ = 0.0;  ///< monotonic seconds
};

}  // namespace scal::obs
