#pragma once
// RunManifest: one structured record per simulation run — configuration,
// seed, code version, wall-clock timings, result scalars, the full
// protocol counter snapshot, and an annealing-search summary — appended
// as one JSON line to a .jsonl file.  A directory of manifests is a
// queryable lab notebook (jq-friendly) tying every result CSV/trace back
// to exactly what produced it.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace scal::obs {

/// `git describe --always --dirty` at configure time ("unknown" outside
/// a git checkout).
std::string git_describe();

/// Current wall-clock time as UTC ISO-8601 ("2026-08-05T12:34:56Z").
std::string utc_timestamp();

struct RunManifest {
  // Identity.
  std::string label;          ///< caller-chosen run label
  std::string started_at;     ///< wall-clock UTC ISO-8601
  std::string git_version;    ///< git describe of the binary's source
  double wall_seconds = 0.0;  ///< wall-clock duration of the run
  std::uint64_t jobs = 1;     ///< worker lanes the campaign ran with

  // The blocks describing the simulated run ("config", "result",
  // "faults", "workload", "memory", "ctrl", "counters"), rendered by the
  // layer that ran it (grid::fill_manifest) as (key, JSON object) pairs
  // and emitted in order after "jobs".  Empty when no run filled the
  // manifest.
  std::vector<std::pair<std::string, std::string>> run_blocks;

  // Annealing-search summary (zero when no tuning ran).
  std::uint64_t anneal_iterations = 0;
  std::uint64_t anneal_accepted = 0;
  std::uint64_t anneal_improving = 0;
  double anneal_best_objective = 0.0;

  // Tuner cost accounting (zero when no tuning ran): logical evaluations
  // the enabler searches requested and how many the evaluation cache
  // answered.  Emitted as a "tuner" block when evaluations > 0.
  std::uint64_t tuner_evaluations = 0;
  std::uint64_t tuner_cache_hits = 0;

  // Evaluation-reuse summary (emitted as a "reuse" block only when
  // reuse_enabled is set by the bench, so every pre-reuse manifest
  // keeps its exact byte layout).  All counts are process-wide and
  // scheduling-dependent — provenance, not results — and therefore
  // volatile in tools/compare_runs.py.
  bool reuse_enabled = false;
  std::uint64_t reuse_tree_shares = 0;     ///< router trees adopted
  std::uint64_t reuse_tree_publishes = 0;  ///< router trees published
  std::uint64_t reuse_inflight_waits = 0;  ///< evals answered by a wait
  std::uint64_t reuse_disk_hits = 0;       ///< evals answered from disk
  std::uint64_t reuse_disk_entries = 0;    ///< entries preloaded from disk

  // Distribution metrics + phase profile, pre-rendered by Telemetry
  // (histograms/profiler JSON).  Emitted as a "metrics" block only when
  // non-empty, so manifests from metrics-off runs are byte-identical to
  // earlier formats.
  std::string metrics_json;

  // Peak resident set size of the process, stamped by benches just
  // before export (0 = not measured; emitted only when > 0).
  std::uint64_t peak_rss_bytes = 0;

  std::string to_json() const;

  /// Append this record as one line to `path` (creates the file).
  /// Returns false (and logs) on I/O failure.
  bool append_jsonl(const std::string& path) const;
};

}  // namespace scal::obs
