#pragma once
// Grid-side telemetry bridge: converts grid-layer data (job logs,
// configs, results) into the obs-layer export formats.  Lives in grid —
// obs stays below sim and knows nothing about grids, jobs, or policies.

#include "grid/config.hpp"
#include "grid/joblog.hpp"
#include "grid/metrics.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"

namespace scal::grid {

/// Convert a job-lifecycle log into async trace spans on `tid`: one span
/// per job from arrival to completion, with transfer / dispatch / start
/// instants inside it.  Jobs still in flight at `horizon` are closed
/// there so the exported trace has matched pairs.
void export_job_spans(const JobLog& log, obs::TraceRecorder& trace,
                      obs::TraceTid tid, double horizon);

/// Render the run's blocks (config, result scalars, every protocol
/// counter, and the faults / workload / memory / ctrl blocks when those
/// features ran) into manifest.run_blocks, replacing any earlier run's.
/// Label / git / wall-clock fields are owned by obs.
void fill_manifest(obs::RunManifest& manifest, const GridConfig& config,
                   const SimulationResult& result);

}  // namespace scal::grid
