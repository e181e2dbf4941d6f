#include "rms/scenario.hpp"

#include "exec/thread_pool.hpp"
#include "rms/factory.hpp"

namespace scal {

Scenario& Scenario::faults(const std::string& spec) {
  config_.faults = fault::FaultPlan::parse(spec);
  return *this;
}

Scenario& Scenario::workload(const std::string& spec) {
  config_.workload_source = workload::SourceSpec::parse(spec);
  return *this;
}

Scenario& Scenario::modulate(const std::string& spec) {
  for (workload::ModulatorSpec& stage : workload::parse_modulators(spec)) {
    config_.workload_source.modulators.push_back(std::move(stage));
  }
  return *this;
}

std::unique_ptr<grid::GridSystem> Scenario::build() const {
  grid::SchedulerFactory factory =
      factory_ ? factory_ : rms::scheduler_factory(config_.rms);
  return std::make_unique<grid::GridSystem>(config_, std::move(factory));
}

grid::SimulationResult Scenario::run() const { return build()->run(); }

std::vector<grid::SimulationResult> Scenario::run_kinds(
    const Scenario& base, const std::vector<grid::RmsKind>& kinds,
    exec::ThreadPool* workers) {
  std::vector<grid::SimulationResult> results(kinds.size());
  exec::parallel_for(workers, kinds.size(), [&](std::size_t i) {
    Scenario s = base;
    results[i] = s.rms(kinds[i]).run();
  });
  return results;
}

}  // namespace scal
