#pragma once
// Shared setup for the figure-reproduction benches.
//
// Every bench reproduces one table or figure of "Measuring Scalability
// of Resource Management Systems" (IPDPS 2005).  The base configurations
// here are the k = 1 points of the paper's four scaling cases; the
// workload intensities are calibrated so the efficiency band is feasible
// across the sweep on this substrate (see EXPERIMENTS.md for the
// mapping to the paper's [0.38, 0.42] band).
//
// Environment knobs:
//   SCAL_BENCH_FAST=1    3 scale factors, small budgets (smoke runs)
//   SCAL_BENCH_EVALS=n   SA budget at the base scale point
//   SCAL_BENCH_SEED=n    simulation seed
//   SCAL_BENCH_CSV=dir   where CSV series are written (default ".")
//   SCAL_JOBS=n          parallel lanes ("hw" = all cores; default 1)
//   SCAL_BENCH_FAULTS=s  fault spec (see docs/FAULTS.md), e.g.
//                        "churn:mtbf=400,mttr=40;net:drop=0.02"
//   SCAL_BENCH_MTBF=t    shorthand: resource churn mean time between
//   SCAL_BENCH_MTTR=t    failures / mean time to repair (sim time units)
//   SCAL_BENCH_WORKLOAD=s  workload-source spec (docs/WORKLOADS.md),
//                        e.g. "swf:trace.swf@0.01"
//   SCAL_BENCH_MODULATE=s  load-modulator chain appended to the source,
//                        e.g. "diurnal:amplitude=0.6,period=500"
//   SCAL_BENCH_RESULT_MODE=m  result path: "full" (default, exact) or
//                        "streaming" (O(1) per-job memory; see
//                        docs/PERFORMANCE.md memory tiers)
//   SCAL_ARRIVAL_CACHE_BYTES=n  byte budgets of the process-wide arrival
//   SCAL_TREE_CACHE_BYTES=n     and shortest-path-tree caches (unset or
//                        0 = unbounded; docs/PERFORMANCE.md)
//
// A set knob with a bad value ends the bench with exit status 2 and
// "error: <variable>: <reason>" on stderr, as a bad flag does.

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "core/procedure.hpp"
#include "core/report.hpp"
#include "fault/plan.hpp"
#include "grid/config.hpp"
#include "obs/telemetry.hpp"

namespace scal::bench {

/// Print "error: <variable>: <reason>" to stderr and exit 2: the bench
/// answer to an environment knob with a bad value.
[[noreturn]] void knob_error(const std::string& variable,
                             std::string reason);

/// `read()`, the reader of knob `variable`; any exception it throws ends
/// the process through knob_error.
template <typename Read>
auto read_knob(const std::string& variable, Read&& read) -> decltype(read()) {
  try {
    return read();
  } catch (const std::exception& e) {
    knob_error(variable, e.what());
  }
}

/// A count knob (util::env_count): `fallback` when unset, exit 2 when
/// not a non-negative integer.
std::uint64_t count_knob(const std::string& variable, std::uint64_t fallback);

/// Reads SCAL_ARRIVAL_CACHE_BYTES and SCAL_TREE_CACHE_BYTES.  The two
/// process-wide caches read their budget at first use; this is that use,
/// made at startup, so a bad value exits 2 instead of ending a run.
void read_cache_budgets();

/// The job count of this bench process: --jobs if Options::parse saw
/// one, else SCAL_JOBS, else 1.
std::size_t job_count();

/// The fault plan of this bench process: --faults/--mtbf/--mttr if
/// Options::parse saw them, else the SCAL_BENCH_FAULTS /
/// SCAL_BENCH_MTBF / SCAL_BENCH_MTTR environment knobs, else an inert
/// plan.  Folded into every case base (common_base), so any figure
/// bench can run under churn without code changes.
fault::FaultPlan fault_plan();

/// The workload source of this bench process: --workload/--swf/
/// --modulate if Options::parse saw them, else the SCAL_BENCH_WORKLOAD
/// / SCAL_BENCH_MODULATE environment knobs, else the default synthetic
/// source.  Folded into every case base (common_base), so any figure
/// bench can replay an SWF trace or run under a modulated load without
/// code changes.
workload::SourceSpec workload_source();

/// The paper's four experimental cases (Tables 2-5) with calibrated
/// base configurations.
grid::GridConfig case1_base();  ///< 250 nodes, scaled by network size
grid::GridConfig case2_base();  ///< 1000 nodes, scaled by service rate
grid::GridConfig case3_base();  ///< 1000 nodes, scaled by estimators
grid::GridConfig case4_base();  ///< 1000 nodes, scaled by L_p

/// Procedure settings for the given case, honoring the env knobs.
core::ProcedureConfig procedure_for(core::ScalingCase scase);

/// All seven RMS kinds (paper order).
std::vector<grid::RmsKind> all_rms();

/// Step 1 of the measurement procedure: pick a feasible E0 by running
/// the reference RMS (LOWEST) with default enablers at the sweep's
/// middle scale point, so the band covers the whole sweep as well as
/// the enablers allow.  When `telemetry` is non-null this calibration
/// run is the figure's instrumented run (trace / probe / manifest).
double calibrate_e0(const grid::GridConfig& base,
                    const core::ScalingCase& scase, double k_mid,
                    obs::Telemetry* telemetry = nullptr);

/// Run a full figure sweep: measure all RMS kinds, print the per-RMS
/// tables, the overhead chart, the summary, and write the CSV.  A
/// non-null `telemetry` instruments the calibration run, collects
/// annealing telemetry from every tuner search, and exports all
/// configured artifacts at the end.
std::vector<core::CaseResult> run_overhead_figure(
    const std::string& figure_name, const grid::GridConfig& base,
    core::ProcedureConfig procedure, obs::Telemetry* telemetry = nullptr);

/// Per-RMS distribution-metrics table (--metrics): run every kind at
/// the base scale with a metrics-only telemetry handle and print the
/// job wait/response/slowdown quantiles plus the scheduler queue-depth
/// and estimator-staleness probes side by side.
void print_rms_metrics_table(const grid::GridConfig& base);

/// Peak resident set size of this process in bytes (0 when the platform
/// offers no measurement).  Stamped into every bench's run manifest.
std::uint64_t peak_rss_bytes();

bool fast_mode();
std::string csv_dir();

}  // namespace scal::bench
