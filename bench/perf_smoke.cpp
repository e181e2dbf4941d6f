// Perf smoke suite: the standing fixed-seed benchmark that gives every
// PR a perf trajectory (docs/PERFORMANCE.md).  Micro kernels (event
// churn at 64 and 1,024 pending events, cancel churn, routing, cold
// settling, ...) plus one Case-1 macro point per RMS kind, all serial,
// all deterministic in their pinned seeds.  Emits
// machine-readable BENCH_<label>.json with ns/item, items/s, wall time,
// and peak RSS; tools/check_perf_regression.py compares two such files.
//
//   ./perf_smoke [--label NAME]      # writes $SCAL_BENCH_CSV/BENCH_NAME.json
//
// A spin-loop calibration sample is included so the regression checker
// can normalize away machine-speed differences between the committed
// baseline's host and the current one.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/eval_store.hpp"
#include "core/tuner.hpp"
#include "ctrl/aggregator.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/tree_cache.hpp"
#include "options.hpp"
#include "rms/scenario.hpp"
#include "rms/session.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/arrival_cache.hpp"
#include "workload/source.hpp"

namespace {

using namespace scal;

struct Sample {
  std::string name;
  std::uint64_t items = 0;  ///< deterministic work count (events, queries)
  double wall_seconds = 0.0;
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` wall time; the work count must be identical each rep.
template <typename Fn>
Sample timed(const std::string& name, int reps, Fn&& body) {
  Sample best;
  best.name = name;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    const std::uint64_t items = body();
    const double wall = now_seconds() - t0;
    if (r == 0 || wall < best.wall_seconds) best.wall_seconds = wall;
    best.items = items;
  }
  return best;
}

/// Fixed arithmetic spin: a machine-speed yardstick, not a kernel.
Sample calibration_spin() {
  return timed("calibration_spin", 5, [] {
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    constexpr std::uint64_t kIters = 50'000'000;
    for (std::uint64_t i = 0; i < kIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    (void)sink;
    return kIters;
  });
}

/// Self-replenishing timer chains through the full Simulator dispatch
/// path — the hot loop of every simulation in the repo.
Sample event_churn() {
  constexpr std::uint64_t kEvents = 1'000'000;
  constexpr std::size_t kChains = 64;
  return timed("event_churn", 5, [] {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    std::function<void()> tick = [&] {
      ++fired;
      if (fired + kChains <= kEvents) sim.schedule_in(1.0, tick);
    };
    for (std::size_t i = 0; i < kChains; ++i) sim.schedule_in(1.0, tick);
    sim.run();
    return sim.dispatched_events();
  });
}

/// event_churn at the depth simulations run at (a mean of ~450 pending
/// events on the Case-1 base, ~1,460 on the Case-2 base): 1,024 chains
/// with seeded exponential delays, so sift paths are long and their
/// direction is unpredictable.
Sample event_churn_deep() {
  constexpr std::uint64_t kEvents = 1'000'000;
  constexpr std::size_t kChains = 1024;
  return timed("event_churn_deep", 5, [] {
    sim::Simulator sim;
    util::RandomStream rng(42, "perf-smoke-churn-deep");
    std::uint64_t fired = 0;
    std::function<void()> tick = [&] {
      ++fired;
      if (fired + kChains <= kEvents) {
        sim.schedule_in(rng.exponential(1.0), tick);
      }
    };
    for (std::size_t i = 0; i < kChains; ++i) {
      sim.schedule_in(rng.exponential(1.0), tick);
    }
    sim.run();
    return sim.dispatched_events();
  });
}

/// The watchdog pattern: every fired event schedules a far-future decoy
/// and cancels the previous one, exercising push + O(log n) heap erase.
Sample event_cancel_churn() {
  constexpr std::uint64_t kEvents = 500'000;
  return timed("event_cancel_churn", 5, [] {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    sim::EventId decoy = 0;
    bool armed = false;
    std::function<void()> tick = [&] {
      ++fired;
      if (armed) sim.cancel(decoy);
      decoy = sim.schedule_in(1e6, [] {});
      armed = true;
      if (fired < kEvents) sim.schedule_in(1.0, tick);
    };
    sim.schedule_in(1.0, tick);
    sim.run();
    return fired;
  });
}

/// Router delay queries on the Case-1 topology: a cold pass that grows
/// the lazy shortest-path trees, then the hot pass the schedulers hit
/// every update interval (same few (src, dst) pairs over and over).
Sample routing_queries() {
  net::TopologyConfig tc;
  tc.nodes = 250;
  util::RandomStream rng(42, "perf-smoke-topology");
  const net::Graph graph = net::generate_topology(tc, rng);
  // Reps are ~10ms each: take a deep best-of so the minimum converges
  // (this sample showed the widest run-to-run spread).
  return timed("routing_queries", 9, [&] {
    net::Router router(graph);
    std::uint64_t queries = 0;
    for (std::size_t src = 0; src < tc.nodes; src += 5) {
      for (std::size_t dst = 0; dst < tc.nodes; dst += 7) {
        if (src == dst) continue;
        (void)router.delay(static_cast<net::NodeId>(src),
                           static_cast<net::NodeId>(dst), 1.0);
        ++queries;
      }
    }
    constexpr std::uint64_t kHot = 1'000'000;
    for (std::uint64_t i = 0; i < kHot; ++i) {
      const auto src = static_cast<net::NodeId>((i * 37) % 64);
      const auto dst = static_cast<net::NodeId>(100 + (i * 11) % 64);
      (void)router.delay(src, dst, 1.0);
    }
    return queries + kHot;
  });
}

/// Cold settling at Case 2's size: a fresh router over the default
/// 1,000-node topology, and every node asks one destination, so each
/// query settles a new source tree as far as that destination — the
/// work every cold-built grid repeats (the benchmark's cold_case2).
/// routing_queries barely sees it under its million hot queries.
Sample routing_cold_settle() {
  net::TopologyConfig tc;
  tc.nodes = 1000;
  util::RandomStream rng(42, "perf-smoke-topology");
  const net::Graph graph = net::generate_topology(tc, rng);
  return timed("routing_cold_settle", 15, [&] {
    net::Router router(graph);
    std::uint64_t queries = 0;
    for (std::size_t src = 0; src < tc.nodes; ++src) {
      (void)router.delay(static_cast<net::NodeId>(src),
                         static_cast<net::NodeId>((src * 7 + 1) % tc.nodes),
                         1.0);
      ++queries;
    }
    return queries;
  });
}

/// The routing_queries cold pass again, but across 8 routers sharing
/// one topology through the process-wide SharedTreeCache — the
/// SessionPool shape, where sibling slots route over identical graphs.
/// The first router settles and publishes each source tree; the other
/// seven adopt the trees instead of re-running Dijkstra, so the gated
/// ns/query tracks the sharing layer's whole win + overhead (each
/// router's graph digest included, as each session site pays it).
Sample shared_tree_sweep() {
  net::TopologyConfig tc;
  tc.nodes = 250;
  util::RandomStream rng(42, "perf-smoke-topology");
  const net::Graph graph = net::generate_topology(tc, rng);
  constexpr std::size_t kRouters = 8;
  Sample sample = timed("shared_tree_sweep", 9, [&] {
    // Each rep starts from an empty shared cache so the publish cost is
    // timed alongside the adoption savings.
    net::SharedTreeCache::instance().clear();
    std::uint64_t queries = 0;
    for (std::size_t r = 0; r < kRouters; ++r) {
      net::Router router(graph);
      router.share_trees();
      for (std::size_t src = 0; src < tc.nodes; src += 5) {
        for (std::size_t dst = 0; dst < tc.nodes; dst += 7) {
          if (src == dst) continue;
          (void)router.delay(static_cast<net::NodeId>(src),
                             static_cast<net::NodeId>(dst), 1.0);
          ++queries;
        }
      }
    }
    return queries;
  });
  net::SharedTreeCache::instance().clear();  // keep the macros cold
  return sample;
}

/// A two-level aggregation chain under steady update churn: rotating
/// resource ids keep the coalescing scan, the batch flushes, and the
/// flush timers all hot.  ns/update through the ctrl tree's full
/// ingest -> absorb -> forward path.
Sample aggregation_churn() {
  constexpr std::uint64_t kUpdates = 400'000;
  return timed("aggregation_churn", 5, [] {
    sim::Simulator sim;
    std::uint64_t delivered = 0;
    ctrl::Aggregator root(
        sim, 1, /*node=*/0, /*process_cost=*/0.0005, /*forward_cost=*/0.002,
        [&](std::vector<grid::StatusUpdate> ups) { delivered += ups.size(); });
    ctrl::Aggregator leaf(
        sim, 2, /*node=*/1, 0.0005, 0.002,
        [&](std::vector<grid::StatusUpdate> ups) {
          root.ingest(std::move(ups));
        });
    root.configure(/*max_batch=*/32, /*flush_interval=*/2.0);
    leaf.configure(/*max_batch=*/16, /*flush_interval=*/1.0);
    std::uint64_t fed = 0;
    std::function<void()> tick = [&] {
      grid::StatusUpdate u;
      u.cluster = 0;
      u.resource = static_cast<grid::ResourceIndex>(fed % 8);
      u.load = static_cast<double>(fed % 7);
      u.stamp = sim.now();
      leaf.ingest({u});
      if (++fed < kUpdates) sim.schedule_in(0.01, tick);
    };
    sim.schedule_in(0.01, tick);
    sim.run();
    (void)delivered;
    return fed;
  });
}

/// The workload shape used by both workload-generation samples: a
/// Case-1-like stream with every knob pinned (case1_base's interarrival
/// depends on SCAL_BENCH_FAST, so it is fixed here instead).
workload::WorkloadConfig perf_workload() {
  workload::WorkloadConfig wl;
  wl.mean_interarrival = 0.4;  // ~3750 jobs per seed over the horizon
  wl.clusters = 12;            // representative Case-1 cluster count
  return wl;
}

/// Cold arrival-stream synthesis through the source layer: build the
/// full source stack for `spec` and drain it to the horizon across
/// distinct seeds (no cache involved).  ns/job of workload generation —
/// the cost the ArrivalCache takes off every system build.  With
/// a modulator in `spec` it adds the per-job time warp.
Sample workload_generation(const std::string& name,
                           const workload::SourceSpec& spec) {
  const workload::WorkloadConfig wl = perf_workload();
  constexpr double kHorizon = 1500.0;
  constexpr std::uint64_t kSeeds = 16;
  return timed(name, 5, [&] {
    std::uint64_t jobs = 0;
    for (std::uint64_t s = 0; s < kSeeds; ++s) {
      auto source = workload::make_source(spec, wl, 1000 + s, kHorizon);
      jobs += workload::collect(*source).size();
    }
    return jobs;
  });
}

/// The diurnal wave of the streaming benchmark workload.
workload::SourceSpec diurnal_spec() {
  workload::SourceSpec spec;
  spec.modulators =
      workload::parse_modulators("diurnal:amplitude=0.6,period=500");
  return spec;
}

/// The same streams recalled from a primed ArrivalCache: ns/job of a
/// warm system build's arrival path.  The cold/warm ratio is the
/// memoization speedup reported below and gated in CI.
Sample workload_generation_warm() {
  const workload::WorkloadConfig wl = perf_workload();
  constexpr double kHorizon = 1500.0;
  constexpr std::uint64_t kSeeds = 16;
  const workload::SourceSpec spec;
  auto key = [](std::uint64_t s) {
    return workload::ArrivalCache::Key{0xC0FFEEull, s};
  };
  workload::ArrivalCache& cache = workload::ArrivalCache::instance();
  cache.clear();
  for (std::uint64_t s = 0; s < kSeeds; ++s) {
    workload::arrivals(key(s), spec, wl, 1000 + s, kHorizon,
                       /*memoize=*/true);
  }
  // Many rounds per rep: one recall is sub-microsecond, so the timed
  // body is stretched until clock jitter is negligible for the gate.
  constexpr std::uint64_t kRounds = 4096;
  Sample sample = timed("workload_generation_warm", 5, [&] {
    std::uint64_t jobs = 0;
    for (std::uint64_t round = 0; round < kRounds; ++round) {
      for (std::uint64_t s = 0; s < kSeeds; ++s) {
        jobs += cache.lookup(key(s))->size();
      }
    }
    return jobs;
  });
  cache.clear();  // keep the macros cold
  return sample;
}

/// Warm-start cost of the persistent EvalCache: serialize a synthetic
/// 512-entry cache once, then time repeated load-from-disk passes into
/// fresh caches (parse + preload, the whole warm-start path a tuner
/// bench pays before its first evaluation).  ns/entry loaded.
Sample eval_cache_warm_disk() {
  constexpr std::size_t kEntries = 512;
  constexpr std::uint64_t kRounds = 64;
  const std::string store = bench::csv_dir() + "/perf_smoke.evc";
  const std::string version = "perf-smoke";  // pinned: no git dependence
  core::EvalCache source;
  util::RandomStream rng(42, "perf-smoke-eval-cache");
  for (std::size_t i = 0; i < kEntries; ++i) {
    opt::EvalKey key;
    key.digest = {0xE7A1ull + i, 0xBEEFull * (i + 1)};
    key.point = {rng.uniform(), rng.uniform(), rng.uniform()};
    grid::SimulationResult value;
    value.F = rng.uniform() * 1000.0;
    value.G_scheduler = rng.uniform() * 100.0;
    value.jobs_arrived = i;
    source.preload(key, value);
  }
  core::save_eval_cache(source, store, version);
  Sample sample = timed("eval_cache_warm_disk", 5, [&] {
    std::uint64_t loaded = 0;
    for (std::uint64_t round = 0; round < kRounds; ++round) {
      core::EvalCache warm;
      loaded += core::load_eval_cache(warm, store, version).loaded;
    }
    return loaded;
  });
  std::error_code ec;
  std::filesystem::remove(store, ec);  // scratch file, not an artifact
  return sample;
}

/// One full Case-1 simulation per RMS kind (the fig2 k=1 point), the
/// end-to-end number the 1.5x acceptance gate is measured on.
std::vector<Sample> case1_macro() {
  grid::GridConfig base = bench::case1_base();
  base.topology.nodes = 250;  // pin against SCAL_BENCH_FAST
  base.seed = 42;             // pin against SCAL_BENCH_SEED
  std::vector<Sample> samples;
  for (const grid::RmsKind kind : bench::all_rms()) {
    samples.push_back(timed("case1_" + grid::to_string(kind), 3, [&] {
      return Scenario(base).rms(kind).run().events_dispatched;
    }));
  }
  return samples;
}

/// A small tune_enablers per RMS kind through the production path —
/// evaluation cache plus reusable-session backend — so the tuner layer
/// itself has a standing perf trajectory.  The fixed E0 keeps it free of
/// calibration simulations; items are the summed logical evaluations,
/// which are deterministic in the pinned seeds.
Sample tuned_sweep() {
  grid::GridConfig base = bench::case1_base();
  base.topology.nodes = 250;  // pin against SCAL_BENCH_FAST
  base.seed = 42;             // pin against SCAL_BENCH_SEED
  const core::ScalingCase scase = core::ScalingCase::case1_network_size();
  return timed("tuned_sweep_total", 2, [&] {
    std::uint64_t evaluations = 0;
    // Fresh cache + sessions per rep: this times the warm-up too.
    core::EvalCache cache;
    rms::SessionPool sessions;
    core::TunerConfig tuner;
    tuner.e0 = 0.40;
    tuner.band = 0.03;
    tuner.evaluations = 6;
    tuner.restarts = 2;
    tuner.cache = &cache;
    tuner.sessions = &sessions;
    for (const grid::RmsKind kind : bench::all_rms()) {
      grid::GridConfig config = base;
      config.rms = kind;
      const core::TuneOutcome outcome = core::tune_enablers(
          config, scase, tuner, {}, config.tuning);
      evaluations += outcome.evaluations;
    }
    return evaluations;
  });
}

/// The streaming tier's standing ns/job sample: a Case-1 LOWEST run in
/// result_mode=streaming with the horizon stretched to ~250k jobs —
/// large enough that the pull-based arrival path and the online result
/// fold dominate, small enough for the smoke budget.  Items are jobs
/// arrived (deterministic in the pinned seed); the committed baseline
/// gates ns/job drift on the million-job path.
Sample streaming_million() {
  grid::GridConfig base = bench::case1_base();
  base.topology.nodes = 250;  // pin against SCAL_BENCH_FAST
  base.seed = 42;             // pin against SCAL_BENCH_SEED
  base.result_mode = grid::ResultMode::kStreaming;
  constexpr std::uint64_t kTargetJobs = 250'000;
  base.horizon =
      static_cast<double>(kTargetJobs) * base.workload.mean_interarrival;
  return timed("streaming_million", 2, [&] {
    return Scenario(base).rms(grid::RmsKind::kLowest).run().jobs_arrived;
  });
}

/// The Case-1 LOWEST macro point again, with --metrics instrumentation
/// live (histogram probes + phase profiler, no file exports): the
/// overhead sample the perf gate holds under 5% of the plain macro.
Sample case1_profiled() {
  grid::GridConfig base = bench::case1_base();
  base.topology.nodes = 250;  // pin against SCAL_BENCH_FAST
  base.seed = 42;             // pin against SCAL_BENCH_SEED
  return timed("case1_LOWEST_profiled", 3, [&] {
    obs::TelemetryConfig tc;
    tc.metrics = true;
    obs::Telemetry telemetry(tc);
    return Scenario(base)
        .rms(grid::RmsKind::kLowest)
        .telemetry(&telemetry)
        .run()
        .events_dispatched;
  });
}

/// One fully instrumented LOWEST run (metrics + trace + manifest),
/// exported next to the BENCH json so CI can upload the artifacts.
/// Not timed — this is the artifact producer, not a sample.
void export_instrumented_run(const std::string& label) {
  grid::GridConfig base = bench::case1_base();
  base.topology.nodes = 250;
  base.seed = 42;
  obs::TelemetryConfig tc;
  tc.metrics = true;
  tc.label = label;
  tc.trace_path = bench::csv_dir() + "/" + label + ".trace.json";
  tc.manifest_path = bench::csv_dir() + "/" + label + ".manifest.jsonl";
  obs::Telemetry telemetry(tc);
  Scenario(base).rms(grid::RmsKind::kLowest).telemetry(&telemetry).run();
  telemetry.manifest().peak_rss_bytes = bench::peak_rss_bytes();
  if (!telemetry.export_all()) {
    std::cerr << "warning: instrumented-run export incomplete\n";
    return;
  }
  std::cout << "instrumented run artifacts: " << tc.trace_path << ", "
            << tc.manifest_path << "\n";
}

bool write_json(const std::string& path, const std::string& label,
                const std::vector<Sample>& samples) {
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);  // errors surface below
  }
  std::ofstream out(path);
  out.precision(9);
  out << "{\n  \"schema\": 1,\n  \"label\": \"" << label << "\",\n"
      << "  \"peak_rss_bytes\": " << bench::peak_rss_bytes() << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    const double per_item_ns =
        s.items > 0 ? 1e9 * s.wall_seconds / static_cast<double>(s.items)
                    : 0.0;
    const double per_second =
        s.wall_seconds > 0.0 ? static_cast<double>(s.items) / s.wall_seconds
                             : 0.0;
    out << "    {\"name\": \"" << s.name << "\", \"items\": " << s.items
        << ", \"wall_seconds\": " << s.wall_seconds
        << ", \"ns_per_item\": " << per_item_ns
        << ", \"items_per_second\": " << per_second << "}"
        << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv, "perf_smoke");

  std::vector<Sample> samples;
  samples.push_back(calibration_spin());
  samples.push_back(event_churn());
  samples.push_back(event_churn_deep());
  samples.push_back(event_cancel_churn());
  samples.push_back(routing_queries());
  samples.push_back(routing_cold_settle());
  samples.push_back(shared_tree_sweep());
  samples.push_back(aggregation_churn());
  samples.push_back(workload_generation("workload_generation", {}));
  samples.push_back(
      workload_generation("workload_generation_diurnal", diurnal_spec()));
  samples.push_back(workload_generation_warm());
  samples.push_back(eval_cache_warm_disk());
  double macro_total = 0.0;
  std::uint64_t macro_events = 0;
  for (Sample& s : case1_macro()) {
    macro_total += s.wall_seconds;
    macro_events += s.items;
    samples.push_back(std::move(s));
  }
  samples.push_back(Sample{"case1_sweep_total", macro_events, macro_total});
  samples.push_back(streaming_million());
  samples.push_back(tuned_sweep());
  samples.push_back(case1_profiled());

  util::Table table({"benchmark", "items", "wall (s)", "ns/item"});
  table.set_align(1, util::Align::kRight);
  table.set_align(2, util::Align::kRight);
  table.set_align(3, util::Align::kRight);
  for (const Sample& s : samples) {
    table.add_row({s.name, std::to_string(s.items),
                   util::Table::fixed(s.wall_seconds, 4),
                   util::Table::fixed(
                       s.items > 0 ? 1e9 * s.wall_seconds /
                                         static_cast<double>(s.items)
                                   : 0.0,
                       1)});
  }
  table.print(std::cout);

  // Instrumentation overhead readout: profiled vs plain LOWEST macro.
  double plain_ns = 0.0;
  double profiled_ns = 0.0;
  double gen_cold_ns = 0.0;
  double gen_warm_ns = 0.0;
  for (const Sample& s : samples) {
    if (s.items == 0) continue;
    const double ns = 1e9 * s.wall_seconds / static_cast<double>(s.items);
    if (s.name == "case1_LOWEST") plain_ns = ns;
    if (s.name == "case1_LOWEST_profiled") profiled_ns = ns;
    if (s.name == "workload_generation") gen_cold_ns = ns;
    if (s.name == "workload_generation_warm") gen_warm_ns = ns;
  }
  if (plain_ns > 0.0 && profiled_ns > 0.0) {
    std::cout << "\nmetrics overhead on case1_LOWEST: "
              << util::Table::fixed((profiled_ns / plain_ns - 1.0) * 100.0, 2)
              << "% per event (gate: tools/check_perf_regression.py)\n";
  }
  // Memoization readout: what the ArrivalCache takes off a system
  // build's arrival path (cold synthesis vs warm recall, ns/job).
  if (gen_cold_ns > 0.0 && gen_warm_ns > 0.0) {
    std::cout << "arrival-cache speedup on workload_generation: "
              << util::Table::fixed(gen_cold_ns / gen_warm_ns, 1)
              << "x (cold " << util::Table::fixed(gen_cold_ns, 1)
              << " ns/job -> warm " << util::Table::fixed(gen_warm_ns, 2)
              << " ns/job)\n";
  }

  export_instrumented_run(opts.telemetry.label);

  const std::string path =
      bench::csv_dir() + "/BENCH_" + opts.telemetry.label + ".json";
  if (!write_json(path, opts.telemetry.label, samples)) {
    std::cerr << "\nerror: could not write " << path << "\n";
    return 1;
  }
  std::cout << "\nresults written to " << path << "\n";
  return 0;
}
