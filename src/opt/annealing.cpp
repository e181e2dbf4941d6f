#include "opt/annealing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "exec/seed_sequence.hpp"
#include "exec/thread_pool.hpp"

namespace scal::opt {

namespace {

/// One chain's search.  Its steps carry the chain's own best in
/// `best_value`; anneal() widens that to the global best after the join
/// (a chain cannot know its siblings' values).
struct ChainResult {
  Point best_point;
  double best_value = 0.0;
  std::vector<AnnealStep> steps;
};

ChainResult run_chain(const Space& space, const Objective& objective,
                      const AnnealingConfig& config, std::size_t chain,
                      std::size_t per_chain, double ratio,
                      std::uint64_t seed) {
  util::RandomStream rng(seed);
  ChainResult result;
  result.steps.reserve(per_chain);

  Point current = (chain == 0 && config.initial_point)
                      ? space.clamp(*config.initial_point)
                      : (chain == 0 ? space.center() : space.sample(rng));
  double current_value = objective(current);
  result.best_point = current;
  result.best_value = current_value;
  AnnealStep first;
  first.chain = chain;
  first.temperature = config.initial_temperature;
  first.candidate_value = current_value;
  first.current_value = current_value;
  first.best_value = result.best_value;
  first.accepted = true;
  result.steps.push_back(first);

  double temperature = config.initial_temperature;
  for (std::size_t it = 1; it < per_chain; ++it) {
    Point candidate = space.neighbor(current, temperature, rng);
    const double candidate_value = objective(candidate);

    const double delta = candidate_value - current_value;
    bool accept = delta <= 0.0;
    if (!accept) {
      // Metropolis criterion; scale by the magnitude of the current
      // value so the schedule is insensitive to objective units.
      const double scale =
          std::max({std::abs(current_value), std::abs(candidate_value),
                    1e-12});
      accept = rng.uniform() < std::exp(-delta / (temperature * scale));
    }
    if (accept) {
      current = std::move(candidate);
      current_value = candidate_value;
      if (current_value < result.best_value) {
        result.best_point = current;
        result.best_value = current_value;
      }
    }
    AnnealStep step;
    step.chain = chain;
    step.iteration = it;
    step.temperature = temperature;
    step.candidate_value = candidate_value;
    step.current_value = current_value;
    step.best_value = result.best_value;
    step.accepted = accept;
    step.improved = accept && delta < 0.0;
    result.steps.push_back(step);
    temperature *= ratio;
  }
  return result;
}

}  // namespace

AnnealingResult anneal(const Space& space, const Objective& objective,
                       const AnnealingConfig& config,
                       util::RandomStream& rng) {
  if (space.size() == 0) {
    throw std::invalid_argument("anneal: empty space");
  }
  if (config.iterations == 0 || config.restarts == 0) {
    throw std::invalid_argument("anneal: zero budget");
  }
  if (!(config.initial_temperature >= config.final_temperature) ||
      !(config.final_temperature > 0.0)) {
    throw std::invalid_argument("anneal: bad temperature schedule");
  }

  const std::size_t per_chain =
      std::max<std::size_t>(1, config.iterations / config.restarts);
  // Geometric cooling ratio hitting final_temperature at chain end.
  const double ratio =
      per_chain > 1
          ? std::pow(config.final_temperature / config.initial_temperature,
                     1.0 / static_cast<double>(per_chain - 1))
          : 1.0;

  // One draw roots every chain's substream; which worker runs a chain
  // (or whether any pool exists at all) can no longer reach the RNG.
  const exec::SeedSequence seeds(rng.bits());

  // Per-chain objectives are made up front, on this thread, in order.
  std::vector<Objective> chain_objectives;
  if (config.chain_objective) {
    chain_objectives.reserve(config.restarts);
    for (std::size_t c = 0; c < config.restarts; ++c) {
      chain_objectives.push_back(config.chain_objective(c));
    }
  }

  std::vector<ChainResult> chains(config.restarts);
  exec::parallel_for(
      config.pool, config.restarts, [&](std::size_t c) {
        const Objective& chain_objective =
            chain_objectives.empty() ? objective : chain_objectives[c];
        chains[c] = run_chain(space, chain_objective, config, c, per_chain,
                              ratio, seeds.at(c));
      });

  // Deterministic reduction, chain-major: identical to the historical
  // serial loop's bookkeeping order.
  AnnealingResult result;
  result.steps.reserve(per_chain * config.restarts);
  bool have_best = false;
  for (ChainResult& chain : chains) {
    const double previous_best = have_best
                                     ? result.best_value
                                     : std::numeric_limits<double>::infinity();
    for (AnnealStep& step : chain.steps) {
      step.best_value = std::min(previous_best, step.best_value);
      result.steps.push_back(step);
    }
    if (!have_best || chain.best_value < result.best_value) {
      result.best_point = std::move(chain.best_point);
      result.best_value = chain.best_value;
      have_best = true;
    }
  }
  return result;
}

}  // namespace scal::opt
