// Microbenchmarks (google-benchmark) of the substrate kernels: event
// queue throughput, Dijkstra routing, topology generation, the SA step,
// full small simulations per RMS, and the workload generator.

#include <benchmark/benchmark.h>

#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "opt/annealing.hpp"
#include "rms/scenario.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace {

using namespace scal;

void BM_EventQueueChurn(benchmark::State& state) {
  const auto fanout = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    // Self-replenishing event chain: `fanout` parallel timer chains.
    std::function<void()> tick = [&]() {
      ++fired;
      if (fired < 100000) sim.schedule_in(1.0, tick);
    };
    for (std::size_t i = 0; i < fanout; ++i) sim.schedule_in(1.0, tick);
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          100000);
}
BENCHMARK(BM_EventQueueChurn)->Arg(1)->Arg(64);

void BM_TopologyGeneration(benchmark::State& state) {
  net::TopologyConfig config;
  config.nodes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    util::RandomStream rng(42, "bench-topo");
    const net::Graph g = net::generate_topology(config, rng);
    benchmark::DoNotOptimize(g.edge_count());
  }
}
BENCHMARK(BM_TopologyGeneration)->Arg(250)->Arg(1000)->Arg(4000);

void BM_DijkstraSourceTree(benchmark::State& state) {
  net::TopologyConfig config;
  config.nodes = static_cast<std::size_t>(state.range(0));
  util::RandomStream rng(42, "bench-routing");
  const net::Graph g = net::generate_topology(config, rng);
  net::NodeId src = 0;
  for (auto _ : state) {
    net::Router router(g);  // fresh cache each iteration
    benchmark::DoNotOptimize(
        router.route(src, static_cast<net::NodeId>(g.node_count() - 1)));
    src = (src + 1) % static_cast<net::NodeId>(g.node_count());
  }
}
BENCHMARK(BM_DijkstraSourceTree)->Arg(1000)->Arg(4000);

void BM_WorkloadGeneration(benchmark::State& state) {
  workload::WorkloadConfig config;
  config.mean_interarrival = 0.1;
  for (auto _ : state) {
    workload::WorkloadGenerator gen(config,
                                    util::RandomStream(42, "bench-wl"));
    std::vector<workload::Job> jobs;
    for (workload::Job job = gen.next(); job.arrival < 1000.0;
         job = gen.next()) {
      jobs.push_back(job);
    }
    benchmark::DoNotOptimize(jobs.size());
  }
}
BENCHMARK(BM_WorkloadGeneration);

void BM_AnnealingStep(benchmark::State& state) {
  const opt::Space space({
      {"a", opt::VarKind::kContinuous, -5.0, 5.0, false},
      {"b", opt::VarKind::kContinuous, -5.0, 5.0, false},
      {"c", opt::VarKind::kInteger, 1.0, 8.0, false},
  });
  const opt::Objective sphere = [](const opt::Point& p) {
    double s = 0.0;
    for (const double x : p) s += x * x;
    return s;
  };
  opt::AnnealingConfig config;
  config.iterations = 256;
  for (auto _ : state) {
    util::RandomStream rng(42, "bench-sa");
    benchmark::DoNotOptimize(opt::anneal(space, sphere, config, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          256);
}
BENCHMARK(BM_AnnealingStep);

void BM_FullSimulation(benchmark::State& state) {
  const auto kind = static_cast<grid::RmsKind>(state.range(0));
  for (auto _ : state) {
    grid::GridConfig config;
    config.rms = kind;
    config.topology.nodes = 200;
    config.horizon = 500.0;
    config.workload.mean_interarrival = 0.5;
    const auto result = Scenario(config).run();
    benchmark::DoNotOptimize(result.G());
  }
}
BENCHMARK(BM_FullSimulation)
    ->DenseRange(0, 6, 1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
