// Ablation: the enabler-tuning search.  The paper uses simulated
// annealing to pick the scaling enablers that minimize G(k) subject to
// the efficiency band; this bench compares SA against random search and
// grid search at the same simulation budget, at the Case 2 base for the
// reference RMS (LOWEST).
//
// With --eval-cache PATH the tuner's memoized evaluations persist
// across processes: the file is preloaded before the searches and
// rewritten after, so a re-run is warm from disk.  The result CSV
// (ablation_tuner.csv) carries only deterministic columns, so warm and
// cold runs produce byte-identical files — the CI round-trip job
// asserts exactly that.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/eval_store.hpp"
#include "exec/thread_pool.hpp"
#include "net/tree_cache.hpp"
#include "options.hpp"
#include "opt/search.hpp"
#include "rms/session.hpp"
#include "util/table.hpp"

namespace {

std::string full_precision(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scal;
  using util::Table;

  const auto opts = bench::Options::parse(argc, argv, "ablation_tuner");
  obs::Telemetry telemetry(opts.telemetry);

  grid::GridConfig base = bench::case2_base();
  base.rms = grid::RmsKind::kLowest;
  const core::ScalingCase scase = core::ScalingCase::case2_service_rate();

  core::TunerConfig tuner;
  tuner.evaluations = bench::fast_mode() ? 8 : 27;
  tuner.e0 = bench::calibrate_e0(base, scase, 1.0);
  tuner.band = 0.03;
  if (telemetry.config().anneal_enabled()) {
    tuner.anneal_log = &telemetry.anneal();
  }
  // One evaluation cache and session pool span both SA arms (the second
  // arm re-probes points the first already simulated); the non-tuner
  // searches below get the same warm-session treatment so the comparison
  // stays budget-fair in wall-clock too (at --jobs 1).
  core::EvalCache cache;
  rms::SessionPool sessions;
  tuner.cache = &cache;
  tuner.sessions = &sessions;
  // --jobs N runs the annealing chains on N - 1 workers plus this
  // thread; every output file is byte-identical at any N.
  std::unique_ptr<exec::ThreadPool> pool;
  if (opts.jobs > 1) {
    pool = std::make_unique<exec::ThreadPool>(opts.jobs - 1);
    tuner.pool = pool.get();
  }

  if (!opts.eval_cache_path.empty()) {
    const core::EvalStoreStats warm =
        core::load_eval_cache(cache, opts.eval_cache_path);
    if (warm.version_mismatch) {
      std::cout << "eval-cache: " << opts.eval_cache_path
                << " is stale (version/format mismatch), starting cold\n";
    } else if (warm.found) {
      std::cout << "eval-cache: preloaded " << warm.loaded
                << " entries from " << opts.eval_cache_path << "\n";
    } else {
      std::cout << "eval-cache: " << opts.eval_cache_path
                << " not found, starting cold\n";
    }
  }

  std::cout << "Ablation: enabler search strategies (LOWEST, Case 2 base, "
            << "budget " << tuner.evaluations << " evaluations, E0="
            << tuner.e0 << ")\n\n";

  const opt::Space space = core::enabler_space(scase);
  rms::SimulationSession search_session;
  auto objective = [&](const opt::Point& point) {
    grid::GridConfig candidate = base;
    candidate.tuning = core::tuning_from_point(scase, base.tuning, point);
    return core::penalized_objective(search_session.run(candidate), tuner);
  };

  std::size_t tuner_evaluations = 0;
  std::size_t tuner_hits = 0;
  Table table({"search", "best objective", "evaluations", "cache hits"});
  // Deterministic rows for the persisted CSV: search name, objective at
  // full precision, evaluation count.  Cache-hit counts stay out — they
  // differ warm vs. cold by design.
  std::vector<std::string> csv_rows;

  {  // Simulated annealing (the paper's choice), via the real tuner.
    tuner.anneal_label = "sa";
    const auto outcome = core::tune_enablers(base, scase, tuner, {});
    tuner_evaluations += outcome.evaluations;
    tuner_hits += outcome.cache_hits;
    table.add_row({"simulated annealing",
                   Table::fixed(outcome.objective, 2),
                   std::to_string(outcome.evaluations),
                   std::to_string(outcome.cache_hits)});
    csv_rows.push_back("sa," + full_precision(outcome.objective) + "," +
                       std::to_string(outcome.evaluations));
  }
  {  // SA as the sweeps actually run it: anchored on the default tuning
     // (the warm-start role the k-chain plays).
    tuner.anneal_label = "sa-anchored";
    const auto outcome =
        core::tune_enablers(base, scase, tuner, {}, base.tuning);
    tuner_evaluations += outcome.evaluations;
    tuner_hits += outcome.cache_hits;
    table.add_row({"simulated annealing (anchored)",
                   Table::fixed(outcome.objective, 2),
                   std::to_string(outcome.evaluations),
                   std::to_string(outcome.cache_hits)});
    csv_rows.push_back("sa_anchored," + full_precision(outcome.objective) +
                       "," + std::to_string(outcome.evaluations));
  }
  {
    util::RandomStream rng(base.seed, "ablation-random-search");
    const auto r = opt::random_search(space, objective, tuner.evaluations,
                                      rng);
    table.add_row({"random search", Table::fixed(r.best_value, 2),
                   std::to_string(r.evaluations), "-"});
    csv_rows.push_back("random," + full_precision(r.best_value) + "," +
                       std::to_string(r.evaluations));
  }
  {
    // 3 levels per dimension =~ the same budget for 3 enablers.
    const auto r = opt::grid_search(space, objective, 3);
    table.add_row({"grid search (3/dim)", Table::fixed(r.best_value, 2),
                   std::to_string(r.evaluations), "-"});
    csv_rows.push_back("grid," + full_precision(r.best_value) + "," +
                       std::to_string(r.evaluations));
  }
  table.print(std::cout);
  std::cout << "\nevaluation cache: " << tuner_hits << "/"
            << tuner_evaluations << " tuner evaluations answered ("
            << Table::fixed(tuner_evaluations > 0
                                ? 100.0 * static_cast<double>(tuner_hits) /
                                      static_cast<double>(tuner_evaluations)
                                : 0.0,
                            1)
            << "% hit rate, " << tuner_hits << " simulations avoided)\n";
  std::cout << "eval-cache disk: " << cache.disk_hits()
            << " evaluations answered from " << cache.preloaded()
            << " preloaded entries\n";

  const std::string csv_path = bench::csv_dir() + "/ablation_tuner.csv";
  {
    std::ofstream csv(csv_path, std::ios::trunc);
    csv << "search,best_objective,evaluations\n";
    for (const std::string& row : csv_rows) csv << row << "\n";
  }
  std::cout << "series written to " << csv_path << "\n";

  if (!opts.eval_cache_path.empty()) {
    const std::size_t written =
        core::save_eval_cache(cache, opts.eval_cache_path);
    std::cout << "eval-cache: saved " << written << " entries to "
              << opts.eval_cache_path << "\n";
  }

  std::cout << "\nLower objective = lower G(k) inside the efficiency band.\n"
               "At cold-start micro budgets, independent sampling is a "
               "strong baseline; the\nsweeps run SA anchored on the "
               "previous scale point's optimum, where its local\n"
               "refinement is what keeps the k-chain smooth.\n";
  if (telemetry.config().any_enabled()) {
    if (telemetry.config().manifest_enabled()) {
      obs::RunManifest& manifest = telemetry.manifest();
      const net::SharedTreeCache& trees = net::SharedTreeCache::instance();
      manifest.reuse_enabled = true;
      manifest.reuse_tree_shares = trees.shares();
      manifest.reuse_tree_publishes = trees.publishes();
      manifest.reuse_inflight_waits = cache.in_flight_waits();
      manifest.reuse_disk_hits = cache.disk_hits();
      manifest.reuse_disk_entries = cache.preloaded();
    }
    if (!telemetry.export_all()) {
      std::cout << "\ntelemetry export incomplete (see warnings above)\n";
    } else if (telemetry.config().anneal_enabled()) {
      std::cout << "\nanneal telemetry written to "
                << telemetry.config().anneal_path << "\n";
    }
  }
  return 0;
}
