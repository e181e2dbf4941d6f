// End-to-end benchmark driver for the scalability-measurement procedure.
//
// One process runs one workload for a time budget and prints one JSON
// object on stdout; benchmark/run.py builds this program, runs it once per
// workload, checks the outputs and reports the metrics.
//
//   scal_benchmark --workload NAME --seed S --seconds T
//                  [--trace PATH] [--size full|tiny]
//
// A workload is a sequence of rounds.  A round is one complete solution
// (for the tuned workloads: calibrate E0, then tune every RMS kind along a
// scaling path) on inputs derived from (S, round index).  Each round
// starts with the process-wide tree and arrival caches emptied, so it pays
// what a fresh process would; rounds repeat until T seconds have passed
// (at least one round).
//
// Every layer is measured from outside, by timing calls into the public
// functions of src/: rms::SimulationSession::run, Scenario::build,
// GridSystem::run, core::measure_all (split at ProgressFn calls),
// workload sources, net::generate_topology and net::Router::delay, plus
// the counters of the process-wide caches.  With --trace the timed rounds
// alternate untraced/traced on the same inputs: spans are kept in memory
// and written to PATH as a Chrome trace, and the layer probes run after
// the timed phase.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/procedure.hpp"
#include "exec/thread_pool.hpp"
#include "fault/plan.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/tree_cache.hpp"
#include "obs/json.hpp"
#include "rms/scenario.hpp"
#include "rms/session.hpp"
#include "spans.hpp"
#include "workload/arrival_cache.hpp"
#include "workload/source.hpp"

namespace {

using bench::Clock;
using bench::SpanLog;
using namespace scal;

// Span names.  The prefix before the first dot is the src/ module the
// timed call belongs to; "bench.round" is the benchmark's own root.
constexpr const char* kRoundSpan = "bench.round";
constexpr const char* kCalibrateSpan = "core.calibrate";
constexpr const char* kMeasureSpan = "core.measure";
constexpr const char* kTuneSpan = "core.tune";
constexpr const char* kSessionSpan = "rms.session.run";
constexpr const char* kBuildSpan = "grid.build";
constexpr const char* kRunSpan = "grid.run";
constexpr const char* kTopologySpan = "net.topology";
constexpr const char* kRouteSpan = "net.route";
constexpr const char* kPullSpan = "workload.pull";

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Percentile by linear interpolation between closest ranks (p in
/// [0, 100]); 0 for an empty sample.  run.py uses the same definition.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

std::string hex_bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += obs::json_number(values[i]);
  }
  return out + "]";
}

std::string json_array(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += obs::json_string(values[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// Pinned base configurations: the k = 1 points of the paper's cases, as
// the figure benches define them, copied here so no environment knob can
// change what the benchmark runs.

grid::GridConfig common_base(std::size_t nodes) {
  grid::GridConfig config;
  config.topology.nodes = nodes;
  config.horizon = 1500.0;
  config.cluster_size = 20;
  config.estimators_per_cluster = 1;
  config.service_rate = 8.0;
  config.tuning.update_interval = 20.0;
  config.tuning.neighborhood_size = 3;
  config.tuning.volunteer_interval = 60.0;
  return config;
}

/// Interarrival time that loads the resource pool to utilization rho.
double interarrival_for(const grid::GridConfig& config, double rho) {
  const double resources = static_cast<double>(
      config.cluster_count() *
      (config.cluster_size - 1 - config.estimators_per_cluster));
  const double capacity = resources * config.service_rate;
  return workload::expected_exec_time(config.workload) / (rho * capacity);
}

grid::GridConfig case1_base(std::size_t nodes) {
  grid::GridConfig config = common_base(nodes);
  config.workload.mean_interarrival = interarrival_for(config, 0.85);
  return config;
}

grid::GridConfig case2_base(std::size_t nodes) {
  grid::GridConfig config = common_base(nodes);
  config.horizon = 1000.0;
  config.workload.mean_interarrival = interarrival_for(config, 0.5);
  return config;
}

grid::GridConfig case3_base(std::size_t nodes) {
  grid::GridConfig config = common_base(nodes);
  config.workload.mean_interarrival = interarrival_for(config, 0.142);
  return config;
}

// ---------------------------------------------------------------------------
// Workloads.

/// The measurement procedure along one scaling path.
struct TunedSpec {
  core::ScalingCase scase;
  std::vector<double> factors;
  std::size_t evaluations = 0;       ///< tuner budget at the first factor
  std::size_t warm_evaluations = 0;  ///< budget at warm-started factors
  double band = 0.0;
};

struct Workload {
  std::string name;
  grid::GridConfig base;  ///< seed replaced per simulation
  std::vector<grid::RmsKind> kinds;
  std::size_t lanes = 1;  ///< threads, calling thread included
  /// Tuned workloads run the procedure; the others run independent
  /// build + run simulations, `seeds_per_round` seeds of every kind.
  std::optional<TunedSpec> tuned;
  std::size_t seeds_per_round = 0;
};

std::vector<grid::RmsKind> all_kinds() {
  return {std::begin(grid::kAllRmsKinds), std::end(grid::kAllRmsKinds)};
}

/// The four workloads, sized so one round takes about 0.4-2.5 s on a
/// 4-core x86 host and a 25 s run holds 10-60 rounds.  `tiny` shrinks
/// every one to a fraction of a second for run.py --self-test.
Workload make_workload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  w.kinds = tiny ? std::vector<grid::RmsKind>{grid::RmsKind::kCentral,
                                              grid::RmsKind::kLowest,
                                              grid::RmsKind::kSymmetric}
                 : all_kinds();
  if (name == "tuned_case1") {
    // Case 1 (network size) from a 150-node base: 150/300/450 nodes.
    w.base = case1_base(tiny ? 60 : 150);
    w.tuned = TunedSpec{core::ScalingCase::case1_network_size(),
                        tiny ? std::vector<double>{1, 2}
                             : std::vector<double>{1, 2, 3},
                        tiny ? 4u : 12u, tiny ? 2u : 6u, 0.03};
  } else if (name == "tuned_case3_agg_churn") {
    w.base = case3_base(tiny ? 80 : 300);
    w.base.control_plane = true;
    w.base.faults =
        fault::FaultPlan::parse("churn:mtbf=400,mttr=40;net:drop=0.02");
    w.tuned = TunedSpec{
        core::ScalingCase::case3_estimators().with_aggregation(),
        {1, 2}, tiny ? 4u : 10u, tiny ? 2u : 5u, 0.06};
    w.lanes = 2;
  } else if (name == "cold_case2") {
    w.base = case2_base(tiny ? 100 : 1000);
    if (tiny) w.base.horizon = 300.0;
    w.seeds_per_round = tiny ? 1 : 2;
  } else if (name == "streaming_diurnal") {
    // About 3.5k jobs per simulation over three load waves.
    w.base = case1_base(tiny ? 60 : 250);
    if (tiny) w.base.horizon = 300.0;
    w.base.result_mode = grid::ResultMode::kStreaming;
    w.base.workload_source.modulators =
        workload::parse_modulators("diurnal:amplitude=0.6,period=500");
    w.seeds_per_round = tiny ? 1 : 2;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

/// Inputs of round `round` at benchmark seed `seed`: every simulation
/// seed of the round is this value plus an index below 1009, so the
/// seeds of one run never repeat.
std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
  return seed * 1'000'003ull + round * 1'009ull;
}

// ---------------------------------------------------------------------------
// One round's record.

/// Sums of the simulation results a round produced.
struct Tally {
  std::uint64_t events = 0, jobs = 0, polls = 0, transfers = 0,
                auctions = 0, adverts = 0, updates_received = 0,
                updates_suppressed = 0, messages = 0, dropped = 0,
                ctrl_in = 0, ctrl_coalesced = 0, ctrl_batches = 0,
                crashes = 0, killed = 0, requeued = 0, lost = 0,
                retries = 0, arena_high_water = 0;

  void add(const grid::SimulationResult& r) {
    events += r.events_dispatched;
    jobs += r.jobs_arrived;
    polls += r.polls;
    transfers += r.transfers;
    auctions += r.auctions;
    adverts += r.adverts;
    updates_received += r.updates_received;
    updates_suppressed += r.updates_suppressed;
    messages += r.network_messages;
    dropped += r.messages_dropped;
    ctrl_in += r.ctrl_updates_in;
    ctrl_coalesced += r.ctrl_updates_coalesced;
    ctrl_batches += r.ctrl_batches;
    crashes += r.resource_crashes;
    killed += r.jobs_killed;
    requeued += r.jobs_requeued;
    lost += r.jobs_lost;
    retries += r.round_retries;
    arena_high_water = std::max(arena_high_water, r.arena_high_water);
  }
};

/// Invariants every simulation must satisfy; they share no code with the
/// fingerprints.  Returns the first violation, or "" when none.
std::string violation(const grid::SimulationResult& r) {
  const double e = r.efficiency();
  if (!(e >= 0.0 && e <= 1.0)) return "efficiency outside [0, 1]";
  if (r.jobs_completed > r.jobs_arrived) {
    return "more jobs completed than arrived";
  }
  if (!(r.F >= 0.0) || !(r.G() >= 0.0) || !(r.H() >= 0.0)) {
    return "negative or NaN F/G/H";
  }
  if (r.events_dispatched == 0) return "no events dispatched";
  return "";
}

struct Round {
  bool traced = false;
  double start_s = 0.0;  ///< since the process clock origin
  double wall_s = 0.0;   ///< round start to solution
  double setup_s = 0.0;  ///< round start to the first simulation's run
  std::vector<double> sim_ms;      ///< every simulation, any path
  std::vector<double> reset_ms;    ///< session runs that reset a system
  std::vector<double> rebuild_ms;  ///< session runs that built one
  std::vector<double> build_ms;    ///< direct Scenario::build calls
  std::vector<double> run_ms;      ///< direct GridSystem::run calls
  Tally tally;
  std::uint64_t evals = 0, cache_hits = 0;
  std::uint64_t tree_shares = 0, tree_misses = 0, tree_publishes = 0;
  std::uint64_t arrival_hits = 0, arrival_misses = 0, arrival_skips = 0;
  double tune_s = 0.0, tune_self_s = 0.0;  ///< traced rounds only
  std::vector<std::string> rows;  ///< outcome fingerprints
  std::vector<std::string> violations;

  void record_sim(double ms, const grid::SimulationResult& result) {
    sim_ms.push_back(ms);
    tally.add(result);
    const std::string bad = violation(result);
    if (!bad.empty()) violations.push_back(bad);
  }
};

std::string sim_row(grid::RmsKind kind, std::uint64_t seed,
                    const grid::SimulationResult& r) {
  std::ostringstream out;
  out << grid::to_string(kind) << '\t' << seed << '\t' << hex_bits(r.F) << '\t'
      << hex_bits(r.G()) << '\t' << hex_bits(r.H()) << '\t'
      << r.events_dispatched << '\t' << r.jobs_arrived;
  return out.str();
}

/// (kind, k) -> the tuned objective, as the progress callback saw it.
using Objectives = std::map<std::pair<grid::RmsKind, double>, double>;

std::string e0_row(double k, double e0) {
  std::ostringstream out;
  out << "E0\t" << k << '\t' << hex_bits(e0);
  return out.str();
}

/// One row per tuned (kind, k) point, in result order.
std::vector<std::string> outcome_rows(
    const std::vector<core::CaseResult>& results,
    const Objectives& objectives) {
  std::vector<std::string> rows;
  for (const core::CaseResult& result : results) {
    for (const core::ScalePoint& p : result.points) {
      const grid::Tuning& t = p.tuning;
      std::ostringstream out;
      out << grid::to_string(result.rms) << '\t' << p.k << '\t'
          << hex_bits(t.update_interval) << ',' << t.neighborhood_size << ','
          << hex_bits(t.link_delay_scale) << ','
          << hex_bits(t.volunteer_interval) << ',' << t.agg_fanout << ','
          << t.agg_batch << ',' << hex_bits(t.agg_flush) << '\t'
          << hex_bits(objectives.at({result.rms, p.k})) << '\t'
          << (p.feasible ? 1 : 0);
      rows.push_back(out.str());
    }
  }
  return rows;
}

/// The tuner's runner: forwards every evaluation to a benchmark-owned
/// rms::SimulationSession, one per (thread, RMS kind) and released when
/// the kind's sweep ends — the same reuse the procedure's own per-kind
/// session pool gives, so the timed work is the production session's
/// run().  Results are bit-identical to the empty-runner path by the
/// tuner's contract.  A call that grew the session's rebuilds() count
/// built a system; any other call reset one.
class SessionRunner {
 public:
  SessionRunner(Round& round, SpanLog* log) : round_(round), log_(log) {}

  grid::SimulationResult run(const grid::GridConfig& config) {
    rms::SimulationSession& session = session_for(config.rms);
    const std::size_t rebuilds = session.rebuilds();
    const auto t0 = Clock::now();
    grid::SimulationResult result = session.run(config);
    const auto t1 = Clock::now();
    const double ms = ms_between(t0, t1);
    std::lock_guard<std::mutex> lock(round_mutex_);
    const auto request = static_cast<std::int64_t>(round_.sim_ms.size());
    round_.record_sim(ms, result);
    (session.rebuilds() != rebuilds ? round_.rebuild_ms : round_.reset_ms)
        .push_back(ms);
    if (log_ != nullptr) log_->add(kSessionSpan, t0, t1, request);
    return result;
  }

  /// Drop the sessions of a kind whose sweep has ended.
  void release(grid::RmsKind kind) {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    std::erase_if(sessions_, [kind](const auto& entry) {
      return entry.first.second == kind;
    });
  }

 private:
  rms::SimulationSession& session_for(grid::RmsKind kind) {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    auto& slot = sessions_[{std::this_thread::get_id(), kind}];
    if (slot == nullptr) slot = std::make_unique<rms::SimulationSession>();
    return *slot;
  }

  Round& round_;
  SpanLog* log_;
  std::mutex round_mutex_;  // guards round_
  std::mutex sessions_mutex_;  // guards sessions_
  std::map<std::pair<std::thread::id, grid::RmsKind>,
           std::unique_ptr<rms::SimulationSession>>
      sessions_;
};

/// The procedure's settings.  The tuner keeps its default search seed:
/// the seed is a parameter of the search algorithm, not an input, and
/// varying it changes which enabler points the annealing visits — and so
/// the cost of a round — far more than the inputs do.
core::ProcedureConfig procedure_for(const TunedSpec& spec,
                                    exec::ThreadPool* pool) {
  core::ProcedureConfig procedure;
  procedure.scase = spec.scase;
  procedure.scale_factors = spec.factors;
  procedure.tuner.evaluations = spec.evaluations;
  procedure.warm_evaluations = spec.warm_evaluations;
  procedure.tuner.band = spec.band;
  procedure.pool = pool;
  return procedure;
}

/// Step 1 of the procedure calibrates E0 with LOWEST at the middle
/// scale factor.
double calibration_factor(const TunedSpec& spec) {
  return spec.factors[spec.factors.size() / 2];
}

grid::GridConfig calibration_config(const Workload& w, std::uint64_t seed) {
  grid::GridConfig config = core::apply_scale(
      w.base, w.tuned->scase, calibration_factor(*w.tuned));
  config.seed = seed;
  config.rms = grid::RmsKind::kLowest;
  return config;
}

void run_tuned_round(const Workload& w, std::uint64_t seed,
                     exec::ThreadPool* pool, SpanLog* log, Round& round) {
  const TunedSpec& spec = *w.tuned;
  const auto t0 = Clock::now();
  grid::GridConfig base = w.base;
  base.seed = seed;
  core::ProcedureConfig procedure = procedure_for(spec, pool);

  const Scenario calibration(calibration_config(w, seed));
  const auto b0 = Clock::now();
  std::unique_ptr<grid::GridSystem> system = calibration.build();
  const auto t1 = Clock::now();
  const grid::SimulationResult reference = system->run();
  const auto t2 = Clock::now();
  system.reset();
  round.setup_s = seconds_between(t0, t1);
  round.build_ms.push_back(ms_between(b0, t1));
  round.run_ms.push_back(ms_between(t1, t2));
  round.record_sim(ms_between(b0, t2), reference);
  procedure.tuner.e0 = reference.efficiency();
  round.rows.push_back(e0_row(calibration_factor(spec), procedure.tuner.e0));
  if (log != nullptr) {
    log->add(kBuildSpan, b0, t1);
    log->add(kRunSpan, t1, t2);
    log->add(kCalibrateSpan, t0, t2);
  }

  // Steps 2-3: scale and tune every kind.  A tune span runs from the
  // thread's previous progress call (or the start of the sweep) to the
  // progress call that reports the tuned point.  measure_all serializes
  // the progress calls, so their state needs no lock of its own.
  SessionRunner runner(round, log);
  std::map<std::thread::id, Clock::time_point> last_progress;
  Objectives objectives;
  std::int64_t tunes = 0;
  const auto m0 = Clock::now();
  const core::ProgressFn progress = [&](grid::RmsKind kind, double k,
                                        const core::TuneOutcome& outcome) {
    const auto now = Clock::now();
    auto& last = last_progress.try_emplace(std::this_thread::get_id(), m0)
                     .first->second;
    if (log != nullptr) log->add(kTuneSpan, last, now, tunes);
    ++tunes;
    last = now;
    objectives[{kind, k}] = outcome.objective;
    if (k == spec.factors.back()) runner.release(kind);
  };
  const std::vector<core::CaseResult> results = core::measure_all(
      base, w.kinds, procedure,
      [&runner](const grid::GridConfig& config) { return runner.run(config); },
      progress);
  const auto m1 = Clock::now();
  round.wall_s = seconds_between(t0, m1);
  if (log != nullptr) log->add(kMeasureSpan, m0, m1);

  for (const core::CaseResult& result : results) {
    for (const core::ScalePoint& point : result.points) {
      round.evals += point.tuner_evaluations;
      round.cache_hits += point.tuner_cache_hits;
    }
  }
  for (std::string& row : outcome_rows(results, objectives)) {
    round.rows.push_back(std::move(row));
  }
}

void run_batch_round(const Workload& w, std::uint64_t seed, SpanLog* log,
                     Round& round) {
  const auto t0 = Clock::now();
  for (std::size_t j = 0; j < w.seeds_per_round; ++j) {
    for (const grid::RmsKind kind : w.kinds) {
      grid::GridConfig config = w.base;
      config.seed = seed + j;
      config.rms = kind;
      const auto b0 = Clock::now();
      std::unique_ptr<grid::GridSystem> system = Scenario(config).build();
      const auto b1 = Clock::now();
      const grid::SimulationResult result = system->run();
      const auto b2 = Clock::now();
      if (round.sim_ms.empty()) round.setup_s = seconds_between(t0, b1);
      const auto request = static_cast<std::int64_t>(round.sim_ms.size());
      round.build_ms.push_back(ms_between(b0, b1));
      round.run_ms.push_back(ms_between(b1, b2));
      round.record_sim(ms_between(b0, b2), result);
      round.rows.push_back(sim_row(kind, config.seed, result));
      if (log != nullptr) {
        log->add(kBuildSpan, b0, b1, request);
        log->add(kRunSpan, b1, b2, request);
      }
    }
  }
  round.wall_s = seconds_between(t0, Clock::now());
}

Round run_round(const Workload& w, std::uint64_t seed, exec::ThreadPool* pool,
                SpanLog* log, Clock::time_point origin) {
  net::SharedTreeCache& trees = net::SharedTreeCache::instance();
  workload::ArrivalCache& arrivals = workload::ArrivalCache::instance();
  trees.clear();
  arrivals.clear();

  Round round;
  round.traced = log != nullptr;
  const auto t0 = Clock::now();
  round.start_s = seconds_between(origin, t0);
  if (w.tuned) {
    run_tuned_round(w, seed, pool, log, round);
  } else {
    run_batch_round(w, seed, log, round);
  }
  const auto t1 = Clock::now();

  round.tree_shares = trees.shares();
  round.tree_misses = trees.misses();
  round.tree_publishes = trees.publishes();
  round.arrival_hits = arrivals.hits();
  round.arrival_misses = arrivals.misses();
  round.arrival_skips = arrivals.store_skips();
  if (log != nullptr) {
    log->add(kRoundSpan, t0, t1, static_cast<std::int64_t>(seed));
    log->resolve();
    const auto times = log->times_since(round.start_s);
    if (const auto it = times.find(kTuneSpan); it != times.end()) {
      round.tune_s = it->second.total_s;
      round.tune_self_s = it->second.self_s;
    }
  }
  return round;
}

// ---------------------------------------------------------------------------
// Checks beyond the per-simulation invariants.

struct Checks {
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

/// Re-run the first round, or part of it, through another path and
/// demand bit-identical outcomes, one check per fingerprint row.  Tuned
/// workloads: E0 through a rms::SimulationSession and every sweep through
/// the procedure's own empty-runner session backend.  The others: the
/// first simulation of every kind through a fresh SimulationSession in
/// the full result mode (streaming runs must match it bit for bit).
void replay_check(const Workload& w, std::uint64_t seed,
                  exec::ThreadPool* pool, const Round& first,
                  Checks& checks) {
  std::vector<std::string> rows;
  if (w.tuned) {
    rms::SimulationSession session;
    const double e0 = session.run(calibration_config(w, seed)).efficiency();
    grid::GridConfig base = w.base;
    base.seed = seed;
    core::ProcedureConfig procedure = procedure_for(*w.tuned, pool);
    procedure.tuner.e0 = e0;
    Objectives objectives;
    const std::vector<core::CaseResult> results = core::measure_all(
        base, w.kinds, procedure, {},
        [&objectives](grid::RmsKind kind, double k,
                      const core::TuneOutcome& outcome) {
          objectives[{kind, k}] = outcome.objective;
        });
    rows = outcome_rows(results, objectives);
    rows.insert(rows.begin(), e0_row(calibration_factor(*w.tuned), e0));
  } else {
    for (const grid::RmsKind kind : w.kinds) {
      grid::GridConfig config = w.base;
      config.seed = seed;
      config.rms = kind;
      config.result_mode = grid::ResultMode::kFull;
      rms::SimulationSession session;
      rows.push_back(sim_row(kind, seed, session.run(config)));
    }
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    checks.expect(i < first.rows.size() && rows[i] == first.rows[i],
                  "replay through another path differs: " + rows[i]);
  }
}

// ---------------------------------------------------------------------------
// Layer probes (traced runs only, after the timed phase).

struct Probes {
  double topology_ms = 0.0;
  double route_ns_per_query = 0.0;
  double gen_ns_per_job = 0.0;
};

Probes run_probes(const Workload& w, std::uint64_t seed, SpanLog& log) {
  constexpr int kReps = 5;
  constexpr std::size_t kQueries = 256;
  grid::GridConfig config = w.base;
  config.seed = seed;
  Probes probes;

  std::vector<double> samples;
  net::Graph graph;
  for (int rep = 0; rep < kReps; ++rep) {
    util::RandomStream rng(config.seed, "topology");
    const auto t0 = Clock::now();
    graph = net::generate_topology(config.topology, rng);
    const auto t1 = Clock::now();
    log.add(kTopologySpan, t0, t1, rep);
    samples.push_back(ms_between(t0, t1));
  }
  probes.topology_ms = percentile(samples, 50.0);

  // Cold sweep: a fresh router per repetition answers the same sample of
  // random (src, dst) pairs, so every first touch of a source settles.
  util::RandomStream pick(config.seed, "benchmark-route-probe");
  const auto last = static_cast<std::int64_t>(graph.node_count()) - 1;
  std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
  while (pairs.size() < kQueries) {
    const auto a = static_cast<net::NodeId>(pick.uniform_int(0, last));
    const auto b = static_cast<net::NodeId>(pick.uniform_int(0, last));
    if (a != b) pairs.emplace_back(a, b);
  }
  samples.clear();
  double delay_sum = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const net::Router router(graph);
    const auto t0 = Clock::now();
    for (const auto& [a, b] : pairs) delay_sum += router.delay(a, b, 1.0);
    const auto t1 = Clock::now();
    log.add(kRouteSpan, t0, t1, rep);
    samples.push_back(ms_between(t0, t1) * 1e6 / kQueries);
  }
  if (!(delay_sum > 0.0)) throw std::runtime_error("route probe: no delay");
  probes.route_ns_per_query = percentile(samples, 50.0);

  workload::WorkloadConfig wl = config.workload;
  wl.clusters = static_cast<std::uint32_t>(config.cluster_count());
  samples.clear();
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    std::unique_ptr<workload::WorkloadSource> source = workload::make_source(
        config.workload_source, wl, config.seed, config.horizon);
    workload::Job job;
    std::uint64_t jobs = 0;
    while (source->next(job) && job.arrival < config.horizon) ++jobs;
    const auto t1 = Clock::now();
    log.add(kPullSpan, t0, t1, rep);
    if (jobs == 0) throw std::runtime_error("workload probe: no jobs");
    samples.push_back(ms_between(t0, t1) * 1e6 / static_cast<double>(jobs));
  }
  probes.gen_ns_per_job = percentile(samples, 50.0);
  return probes;
}

// ---------------------------------------------------------------------------
// Output.

std::string layer_json(const Round& r, std::size_t lanes) {
  const Tally& t = r.tally;
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  const double sims = static_cast<double>(r.sim_ms.size());
  const double resets = static_cast<double>(r.reset_ms.size());
  const double rebuilds = static_cast<double>(r.rebuild_ms.size());
  const double busy_s = sum(r.sim_ms) / 1e3;
  const std::vector<std::pair<const char*, double>> metrics = {
      {"core.tune_s", r.tune_s},
      {"core.tune_self_s", r.tune_self_s},
      {"core.evals", u(r.evals)},
      {"core.cache_hits", u(r.cache_hits)},
      {"core.cache_hit_ratio", ratio(u(r.cache_hits), u(r.evals))},
      {"rms.sims", sims},
      {"rms.resets", resets},
      {"rms.rebuilds", rebuilds},
      {"rms.reset_ratio", ratio(resets, resets + rebuilds)},
      {"rms.reset_sim_ms_p50", percentile(r.reset_ms, 50.0)},
      {"rms.rebuild_sim_ms_p50", percentile(r.rebuild_ms, 50.0)},
      {"rms.polls", u(t.polls)},
      {"rms.transfers", u(t.transfers)},
      {"rms.auctions", u(t.auctions)},
      {"rms.adverts", u(t.adverts)},
      {"grid.build_ms_p50", percentile(r.build_ms, 50.0)},
      {"grid.build_s", sum(r.build_ms) / 1e3},
      {"grid.run_s", sum(r.run_ms) / 1e3},
      {"grid.run_ms_p50", percentile(r.run_ms, 50.0)},
      {"grid.run_ms_p95", percentile(r.run_ms, 95.0)},
      {"grid.updates_received", u(t.updates_received)},
      {"grid.updates_suppressed", u(t.updates_suppressed)},
      {"grid.suppression_ratio",
       ratio(u(t.updates_suppressed),
             u(t.updates_received) + u(t.updates_suppressed))},
      {"sim.events", u(t.events)},
      {"sim.ns_per_event", ratio(busy_s * 1e9, u(t.events))},
      {"sim.events_per_job", ratio(u(t.events), u(t.jobs))},
      {"net.messages", u(t.messages)},
      {"net.messages_per_job", ratio(u(t.messages), u(t.jobs))},
      {"net.messages_dropped", u(t.dropped)},
      {"net.tree_shares", u(r.tree_shares)},
      {"net.tree_misses", u(r.tree_misses)},
      {"net.tree_publishes", u(r.tree_publishes)},
      {"net.tree_share_ratio",
       ratio(u(r.tree_shares), u(r.tree_shares) + u(r.tree_misses))},
      {"workload.jobs", u(t.jobs)},
      {"workload.arena_high_water", u(t.arena_high_water)},
      {"workload.arrival_cache_hits", u(r.arrival_hits)},
      {"workload.arrival_cache_misses", u(r.arrival_misses)},
      {"workload.arrival_cache_store_skips", u(r.arrival_skips)},
      {"workload.arrival_cache_hit_ratio",
       ratio(u(r.arrival_hits), u(r.arrival_hits) + u(r.arrival_misses))},
      {"ctrl.updates_in", u(t.ctrl_in)},
      {"ctrl.coalesced", u(t.ctrl_coalesced)},
      {"ctrl.batches", u(t.ctrl_batches)},
      {"ctrl.coalescing_ratio", ratio(u(t.ctrl_coalesced), u(t.ctrl_in))},
      {"fault.crashes", u(t.crashes)},
      {"fault.jobs_killed", u(t.killed)},
      {"fault.jobs_requeued", u(t.requeued)},
      {"fault.jobs_lost", u(t.lost)},
      {"fault.round_retries", u(t.retries)},
      {"exec.lanes", static_cast<double>(lanes)},
      {"exec.busy_ratio", ratio(busy_s, r.wall_s * static_cast<double>(lanes))},
  };
  obs::JsonObject out;
  for (const auto& [name, value] : metrics) out.field(name, value);
  return out.str();
}

std::string round_json(const Round& r, std::size_t lanes) {
  obs::JsonObject out;
  out.field("traced", r.traced)
      .field("wall_s", r.wall_s)
      .field("setup_s", r.setup_s)
      .field("sims", static_cast<std::uint64_t>(r.sim_ms.size()))
      .field("events", r.tally.events)
      .field("jobs", r.tally.jobs)
      .raw("layers", layer_json(r, lanes));
  return out.str();
}

double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload NAME --seed S --seconds T [--trace PATH]"
               " [--size full|tiny]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 42;
  double seconds = 0.0;
  std::string trace_path;
  std::string size = "full";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    try {
      if (value.empty() || value[0] == '-') return usage(argv[0]);
      if (flag == "--workload") {
        name = value;
      } else if (flag == "--seed") {
        seed = std::stoull(value);
      } else if (flag == "--seconds") {
        seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace_path = value;
      } else if (flag == "--size") {
        size = value;
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }
  if (name.empty() || (size != "full" && size != "tiny") || seconds < 0.0) {
    return usage(argv[0]);
  }

  try {
    const Workload w = make_workload(name, size == "tiny");
    std::unique_ptr<exec::ThreadPool> pool;
    if (w.lanes > 1) pool = std::make_unique<exec::ThreadPool>(w.lanes - 1);
    const bool tracing = !trace_path.empty();
    const auto origin = Clock::now();
    SpanLog log(origin);

    // Timed phase.  Traced runs alternate an untraced and a traced round
    // on the same inputs, so the pair gives the tracing overhead and two
    // in-process runs whose outcomes must agree.
    // A further round starts only when the last one would still fit in
    // the budget, so a run takes about T seconds.
    std::vector<Round> rounds;
    std::uint64_t index = 0;
    double last_s = 0.0;
    do {
      const auto t0 = Clock::now();
      const std::uint64_t rs = round_seed(seed, index++);
      rounds.push_back(run_round(w, rs, pool.get(), nullptr, origin));
      if (tracing) rounds.push_back(run_round(w, rs, pool.get(), &log, origin));
      last_s = seconds_between(t0, Clock::now());
    } while (seconds_between(origin, Clock::now()) + last_s <= seconds);
    const double rss_mib = peak_rss_mib();

    Checks checks;
    for (const Round& r : rounds) {
      checks.attempted += r.sim_ms.size();
      for (const std::string& v : r.violations) checks.failures.push_back(v);
    }
    replay_check(w, round_seed(seed, 0), pool.get(), rounds.front(), checks);

    std::vector<double> sim_ms;
    for (const Round& r : rounds) {
      if (r.traced) continue;
      sim_ms.insert(sim_ms.end(), r.sim_ms.begin(), r.sim_ms.end());
    }

    obs::JsonObject out;
    out.field("workload", w.name)
        .field("seed", seed)
        .field("size", size)
        .field("lanes", static_cast<std::uint64_t>(w.lanes))
        .field("peak_rss_mb", rss_mib)
        .raw("sim_ms", json_array(sim_ms))
        .raw("fingerprints", json_array(rounds.front().rows));

    if (tracing) {
      checks.expect(rounds[1].rows == rounds[0].rows,
                    "traced round outcomes differ from the untraced round");
      std::vector<double> overhead;
      for (std::size_t i = 0; i + 1 < rounds.size(); i += 2) {
        overhead.push_back(rounds[i + 1].wall_s / rounds[i].wall_s - 1.0);
      }
      const Probes probes = run_probes(w, round_seed(seed, 0), log);
      log.resolve();
      if (!log.write_chrome_trace(trace_path)) {
        throw std::runtime_error("cannot write " + trace_path);
      }
      obs::JsonObject p;
      p.field("net.topology_ms", probes.topology_ms)
          .field("net.route_ns_per_query", probes.route_ns_per_query)
          .field("workload.gen_ns_per_job", probes.gen_ns_per_job)
          .field("bench.trace_overhead", percentile(overhead, 50.0));
      out.raw("probes", p.str());
    }

    std::string rounds_json = "[";
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      if (i > 0) rounds_json += ',';
      rounds_json += round_json(rounds[i], w.lanes);
    }
    rounds_json += "]";
    out.raw("rounds", rounds_json);

    obs::JsonObject c;
    c.field("attempted", checks.attempted)
        .field("failed", static_cast<std::uint64_t>(checks.failures.size()))
        .raw("failures", json_array(checks.failures));
    out.raw("checks", c.str());
    std::cout << out.str() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "scal_benchmark: " << e.what() << "\n";
    return 1;
  }
}
