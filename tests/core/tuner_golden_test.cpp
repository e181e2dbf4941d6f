// Byte-exact pin of the enabler tuner's outputs.  Each row runs one
// tune_enablers call with an anneal log attached and renders one
// tab-separated line:
//
//   label  evaluations  cache_hits  cache_prior_hits  feasible
//   objective-bits  tuning-hash  result-hash  anneal-rows  anneal-hash
//
// The tuning hash folds the bits of every grid::Tuning field; the result
// hash folds every stored field of the best SimulationResult (walked with
// grid::for_each_field, doubles bit for bit); the anneal hash folds all
// ten columns of every obs::AnnealRecord in log order, `cached` included.
// The rows cover the analytic runner cold, warm-started (anchors plus
// chain 0's cached restart), as the second tune on a shared cache, on a
// cache filled through the on-disk store, and cold on a 2-worker pool;
// plus one real 60-node LOWEST tune through the session backend.
//
// tests/data/tuner_golden.tsv holds the expected lines.  On a mismatch
// the test prints the actual line.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/eval_store.hpp"
#include "core/tuner.hpp"
#include "exec/thread_pool.hpp"
#include "obs/anneal_log.hpp"
#include "support/hash64.hpp"
#include "workload/arrival_cache.hpp"

namespace scal::core {
namespace {

using test::Hash64;

/// The analytic runner of tuner_cache_test.cpp: G is minimized at
/// tau ~= 25.8 inside the efficiency band.
grid::SimulationResult fake_sim(const grid::GridConfig& config) {
  const double tau = config.tuning.update_interval;
  grid::SimulationResult r;
  r.G_scheduler = 100.0 + 2000.0 / tau + 3.0 * tau;
  const double e = 0.60 - 0.004 * std::abs(tau - 20.0);
  r.F = 1000.0;
  r.H_control = r.F / e - r.F - r.G_scheduler;
  return r;
}

/// Every row logs under one anneal label, so rows that must agree (the
/// cold tune serial and pooled) render identical lines after the label.
constexpr const char* kAnnealLabel = "tune";

TunerConfig analytic_tuner(obs::AnnealLog& log) {
  TunerConfig t;
  t.e0 = 0.58;
  t.band = 0.02;
  t.evaluations = 24;
  t.restarts = 3;
  t.anneal_log = &log;
  t.anneal_label = kAnnealLabel;
  return t;
}

grid::GridConfig analytic_config() {
  grid::GridConfig config;
  config.topology.nodes = 100;
  return config;
}

grid::Tuning warm_tuning() {
  grid::Tuning warm;
  warm.update_interval = 24.0;
  warm.neighborhood_size = 3;
  warm.link_delay_scale = 1.0;
  return warm;
}

/// The row's columns after the label.
std::string render(const TuneOutcome& outcome, const obs::AnnealLog& log) {
  Hash64 objective;
  objective.add_double(outcome.objective);
  const grid::Tuning& t = outcome.tuning;
  Hash64 tuning;
  tuning.add_double(t.update_interval);
  tuning.add(t.neighborhood_size);
  tuning.add_double(t.link_delay_scale);
  tuning.add_double(t.volunteer_interval);
  tuning.add(t.agg_fanout);
  tuning.add(t.agg_batch);
  tuning.add_double(t.agg_flush);
  Hash64 fields;
  grid::for_each_field(
      [&fields](const grid::FieldName&, const auto& value) {
        fields.add(test::result_equal_detail::bits(value));
      },
      outcome.result);
  Hash64 records;
  for (const obs::AnnealRecord& rec : log.records()) {
    records.add(rec.label.size());
    for (const char c : rec.label) records.add(static_cast<unsigned char>(c));
    records.add(rec.chain);
    records.add(rec.iteration);
    records.add_double(rec.temperature);
    records.add_double(rec.candidate_value);
    records.add_double(rec.current_value);
    records.add_double(rec.best_value);
    records.add(rec.accepted);
    records.add(rec.improved);
    records.add(rec.cached);
  }
  std::ostringstream line;
  line << outcome.evaluations << '\t' << outcome.cache_hits
       << '\t' << outcome.cache_prior_hits << '\t' << outcome.feasible
       << '\t' << objective.hex() << '\t' << tuning.hex() << '\t'
       << fields.hex() << '\t' << log.size() << '\t' << records.hex();
  return line.str();
}

struct Row {
  std::string label;
  /// Runs the row's tune, after any setup tunes, and renders it.
  std::function<std::string()> run;
};

std::vector<Row> rows() {
  const ScalingCase scase = ScalingCase::case1_network_size();
  std::vector<Row> out;
  out.push_back({"analytic/cold", [scase] {
                   obs::AnnealLog log;
                   const TuneOutcome outcome =
                       tune_enablers(analytic_config(), scase,
                                     analytic_tuner(log), fake_sim);
                   return render(outcome, log);
                 }});
  out.push_back({"analytic/warm", [scase] {
                   obs::AnnealLog log;
                   const TuneOutcome outcome = tune_enablers(
                       analytic_config(), scase, analytic_tuner(log),
                       fake_sim, warm_tuning());
                   return render(outcome, log);
                 }});
  // The second tune on a shared cache mixes answers from the first tune,
  // repeats within its own search, and fresh keys.
  out.push_back({"analytic/shared-second", [scase] {
                   EvalCache cache;
                   obs::AnnealLog first_log;
                   TunerConfig first = analytic_tuner(first_log);
                   first.cache = &cache;
                   tune_enablers(analytic_config(), scase, first, fake_sim);
                   obs::AnnealLog log;
                   TunerConfig second = analytic_tuner(log);
                   second.cache = &cache;
                   const TuneOutcome outcome = tune_enablers(
                       analytic_config(), scase, second, fake_sim,
                       warm_tuning());
                   return render(outcome, log);
                 }});
  // The same mix, with the first tune's answers read back from disk.
  out.push_back({"analytic/disk", [scase] {
                   const std::string path =
                       ::testing::TempDir() + "tuner_golden.evc";
                   {
                     EvalCache cache;
                     obs::AnnealLog first_log;
                     TunerConfig first = analytic_tuner(first_log);
                     first.cache = &cache;
                     tune_enablers(analytic_config(), scase, first, fake_sim);
                     save_eval_cache(cache, path, "tuner-golden");
                   }
                   EvalCache loaded;
                   load_eval_cache(loaded, path, "tuner-golden");
                   std::remove(path.c_str());
                   obs::AnnealLog log;
                   TunerConfig tuner = analytic_tuner(log);
                   tuner.cache = &loaded;
                   const TuneOutcome outcome = tune_enablers(
                       analytic_config(), scase, tuner, fake_sim,
                       warm_tuning());
                   return render(outcome, log);
                 }});
  out.push_back({"analytic/cold/pool2", [scase] {
                   exec::ThreadPool pool(2);
                   obs::AnnealLog log;
                   TunerConfig tuner = analytic_tuner(log);
                   tuner.pool = &pool;
                   const TuneOutcome outcome = tune_enablers(
                       analytic_config(), scase, tuner, fake_sim);
                   return render(outcome, log);
                 }});
  out.push_back({"lowest60/session", [scase] {
                   grid::GridConfig config;
                   config.rms = grid::RmsKind::kLowest;
                   config.topology.nodes = 60;
                   config.cluster_size = 20;
                   config.horizon = 150.0;
                   config.workload.mean_interarrival = 1.0;
                   config.seed = 42;
                   obs::AnnealLog log;
                   TunerConfig tuner;
                   tuner.e0 = 0.40;
                   tuner.band = 0.05;
                   tuner.evaluations = 6;
                   tuner.restarts = 2;
                   tuner.anneal_log = &log;
                   tuner.anneal_label = kAnnealLabel;
                   // The best result records whether its arrivals came
                   // from the process-wide cache; start that cache empty.
                   workload::ArrivalCache::instance().clear();
                   const TuneOutcome outcome = tune_enablers(
                       config, scase, tuner, {}, config.tuning);
                   return render(outcome, log);
                 }});
  return out;
}

/// The golden lines keyed by label (the text before the first tab).
std::map<std::string, std::string> golden_lines(std::size_t* line_count) {
  std::map<std::string, std::string> out;
  std::ifstream in(std::string(SCAL_SOURCE_DIR) +
                   "/tests/data/tuner_golden.tsv");
  *line_count = 0;
  for (std::string line; std::getline(in, line); ++*line_count) {
    out.emplace(line.substr(0, line.find('\t')), line);
  }
  return out;
}

TEST(TunerGolden, MatchesGoldenLines) {
  std::size_t line_count = 0;
  const std::map<std::string, std::string> golden = golden_lines(&line_count);
  for (const Row& row : rows()) {
    const std::string actual = row.label + '\t' + row.run();
    const auto it = golden.find(row.label);
    const std::string expected = it != golden.end() ? it->second : "";
    EXPECT_EQ(actual, expected) << "tune differs from the golden line\n"
                                << "actual: " << actual;
  }
}

TEST(TunerGolden, FileHoldsExactlyTheRows) {
  std::size_t line_count = 0;
  std::set<std::string> file_labels;
  for (const auto& [label, line] : golden_lines(&line_count)) {
    file_labels.insert(label);
  }
  std::set<std::string> labels;
  for (const Row& row : rows()) labels.insert(row.label);
  EXPECT_EQ(file_labels, labels);
  EXPECT_EQ(line_count, labels.size()) << "a label appears twice";
}

}  // namespace
}  // namespace scal::core
