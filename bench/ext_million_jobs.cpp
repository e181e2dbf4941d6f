// Extension experiment: the million-job streaming tier
// (docs/PERFORMANCE.md memory tiers).  The paper's figures run ~10^3-10^4
// jobs per point; this bench pushes a Case-1-style configuration to
// 10^6-10^8 jobs by stretching the horizon, running the streaming result
// path (result_mode = streaming): arrivals are pulled live from the
// source, one pending job at a time, and results fold online, so
// per-job memory is O(1).
//
// The bench runs an ascending ladder of job-count targets in ONE process
// and reports peak RSS after each rung.  Peak RSS is monotone over the
// process lifetime, so a flat reading across a 100x job-count spread is
// direct evidence the streaming tier's memory is independent of the job
// count — the acceptance criterion the million-job tier is gated on.
//
//   SCAL_BENCH_TARGET_JOBS=n   top rung of the ladder (default 1000000;
//                              100000 under SCAL_BENCH_FAST)
//
// ns/job and peak RSS land in the CSV and in one manifest per rung
// (--manifest PATH, default ext_million_jobs.jsonl) for CI artifacts;
// perf_smoke's streaming_million sample gates the ns/job trajectory.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "grid/telemetry.hpp"
#include "obs/manifest.hpp"
#include "options.hpp"
#include "rms/scenario.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace scal;
  using util::Table;

  const bench::Options opts =
      bench::Options::parse(argc, argv, "ext_million_jobs");
  const std::string manifest_path =
      opts.telemetry.manifest_enabled()
          ? opts.telemetry.manifest_path
          : bench::csv_dir() + "/ext_million_jobs.jsonl";

  const std::uint64_t target = bench::count_knob(
      "SCAL_BENCH_TARGET_JOBS", bench::fast_mode() ? 100'000 : 1'000'000);

  // Ascending ladder: two decades below the target (rungs under 10k jobs
  // are dropped — too small to measure).  Running smallest-first inside
  // one process makes the peak-RSS column a flatness readout.
  std::vector<std::uint64_t> ladder;
  for (const std::uint64_t div : {100u, 10u, 1u}) {
    const std::uint64_t jobs = target / div;
    if (jobs >= 10'000) ladder.push_back(jobs);
  }
  if (ladder.empty()) ladder.push_back(std::max<std::uint64_t>(target, 1));

  grid::GridConfig base = bench::case1_base();
  base.result_mode = grid::ResultMode::kStreaming;

  std::cout << "Extension: million-job streaming tier (Case-1 "
               "configuration, LOWEST)\n"
            << "result_mode=streaming; target " << target
            << " jobs; interarrival "
            << Table::fixed(base.workload.mean_interarrival, 4) << "\n\n";

  util::CsvWriter csv(bench::csv_dir() + "/ext_million_jobs.csv",
                      {"target_jobs", "jobs_arrived", "horizon",
                       "wall_seconds", "ns_per_job", "events_dispatched",
                       "efficiency", "mean_response", "p95_response",
                       "arena_high_water", "peak_rss_bytes"});

  Table table({"target", "arrived", "wall (s)", "ns/job", "E",
               "arena hw", "peak RSS (MiB)"});
  for (int c = 1; c <= 6; ++c) table.set_align(c, util::Align::kRight);

  std::uint64_t first_rss = 0;
  std::uint64_t last_rss = 0;
  for (const std::uint64_t jobs : ladder) {
    grid::GridConfig config = base;
    config.horizon =
        static_cast<double>(jobs) * config.workload.mean_interarrival;

    const auto t0 = std::chrono::steady_clock::now();
    const grid::SimulationResult result =
        Scenario(config).rms(grid::RmsKind::kLowest).run();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    const std::uint64_t rss = bench::peak_rss_bytes();
    if (first_rss == 0) first_rss = rss;
    last_rss = rss;
    const double ns_per_job =
        result.jobs_arrived > 0
            ? 1e9 * wall / static_cast<double>(result.jobs_arrived)
            : 0.0;

    table.add_row({std::to_string(jobs), std::to_string(result.jobs_arrived),
                   Table::fixed(wall, 2), Table::fixed(ns_per_job, 0),
                   Table::fixed(result.efficiency(), 4),
                   std::to_string(result.arena_high_water),
                   Table::fixed(static_cast<double>(rss) / (1024.0 * 1024.0),
                                1)});
    csv.add_row({std::to_string(jobs), std::to_string(result.jobs_arrived),
                 Table::fixed(config.horizon, 1), Table::fixed(wall, 4),
                 Table::fixed(ns_per_job, 1),
                 std::to_string(result.events_dispatched),
                 Table::fixed(result.efficiency(), 4),
                 Table::fixed(result.mean_response, 4),
                 Table::fixed(result.p95_response, 4),
                 std::to_string(result.arena_high_water),
                 std::to_string(rss)});

    obs::RunManifest manifest;
    manifest.label = "ext_million_jobs/" + std::to_string(jobs);
    manifest.started_at = obs::utc_timestamp();
    manifest.git_version = obs::git_describe();
    manifest.wall_seconds = wall;
    manifest.jobs = opts.jobs;
    grid::fill_manifest(manifest, config, result);
    manifest.peak_rss_bytes = rss;
    manifest.append_jsonl(manifest_path);
  }
  table.print(std::cout);

  if (first_rss > 0 && ladder.size() > 1) {
    const double growth = static_cast<double>(last_rss) /
                          static_cast<double>(first_rss);
    std::cout << "\npeak RSS growth across a " << (ladder.back() / ladder[0])
              << "x job-count spread: " << Table::fixed(growth, 3)
              << "x (flat = per-job memory is O(1))\n";
  }
  std::cout << "\nCSV written to " << bench::csv_dir()
            << "/ext_million_jobs.csv; manifests appended to "
            << manifest_path << "\n";
  return 0;
}
