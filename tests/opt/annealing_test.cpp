#include "opt/annealing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "exec/thread_pool.hpp"

namespace scal::opt {
namespace {

double sphere(const Point& p) {
  double s = 0.0;
  for (const double x : p) s += x * x;
  return s;
}

double rastrigin(const Point& p) {
  double s = 10.0 * static_cast<double>(p.size());
  for (const double x : p) {
    s += x * x - 10.0 * std::cos(2.0 * M_PI * x);
  }
  return s;
}

Space box(std::size_t dims, double lo, double hi) {
  std::vector<Variable> vars;
  for (std::size_t i = 0; i < dims; ++i) {
    std::string name = "x";
    name += std::to_string(i);
    vars.push_back({std::move(name), VarKind::kContinuous, lo, hi, false});
  }
  return Space(std::move(vars));
}

TEST(Annealing, MinimizesSphere) {
  const Space space = box(3, -5.0, 5.0);
  AnnealingConfig config;
  config.iterations = 2000;
  util::RandomStream rng(42, "sa");
  const auto result = anneal(space, sphere, config, rng);
  EXPECT_LT(result.best_value, 0.5);
  for (const double x : result.best_point) EXPECT_LT(std::abs(x), 1.0);
}

TEST(Annealing, EscapesRastriginLocalMinima) {
  const Space space = box(2, -5.12, 5.12);
  AnnealingConfig config;
  config.iterations = 4000;
  config.restarts = 4;
  util::RandomStream rng(7, "sa");
  const auto result = anneal(space, rastrigin, config, rng);
  // Global minimum 0 at origin; plain greedy descent from the center
  // typically strands above ~1; SA with restarts should do better.
  EXPECT_LT(result.best_value, 2.0);
}

TEST(Annealing, DeterministicGivenSeed) {
  const Space space = box(2, -1.0, 1.0);
  AnnealingConfig config;
  config.iterations = 300;
  util::RandomStream rng1(5, "sa");
  util::RandomStream rng2(5, "sa");
  const auto a = anneal(space, sphere, config, rng1);
  const auto b = anneal(space, sphere, config, rng2);
  EXPECT_DOUBLE_EQ(a.best_value, b.best_value);
  EXPECT_EQ(a.best_point, b.best_point);
}

TEST(Annealing, HonorsEvaluationBudget) {
  const Space space = box(2, -1.0, 1.0);
  AnnealingConfig config;
  config.iterations = 123;
  std::size_t calls = 0;
  const Objective counting = [&](const Point& p) {
    ++calls;
    return sphere(p);
  };
  util::RandomStream rng(1, "sa");
  const auto result = anneal(space, counting, config, rng);
  EXPECT_EQ(calls, result.steps.size());
  EXPECT_LE(calls, config.iterations);
  EXPECT_GE(calls, config.iterations - 1);
}

TEST(Annealing, WarmStartIsUsed) {
  const Space space = box(2, -10.0, 10.0);
  AnnealingConfig config;
  config.iterations = 1;  // only evaluates the initial point
  config.initial_point = Point{3.0, 4.0};
  util::RandomStream rng(1, "sa");
  const auto result = anneal(space, sphere, config, rng);
  EXPECT_DOUBLE_EQ(result.best_value, 25.0);
  EXPECT_EQ(result.best_point, (Point{3.0, 4.0}));
}

TEST(Annealing, WarmStartOutOfBoundsIsClamped) {
  const Space space = box(1, 0.0, 1.0);
  AnnealingConfig config;
  config.iterations = 1;
  config.initial_point = Point{99.0};
  util::RandomStream rng(1, "sa");
  const auto result = anneal(space, sphere, config, rng);
  EXPECT_DOUBLE_EQ(result.best_point[0], 1.0);
}

TEST(Annealing, BestNeverWorseThanInitial) {
  const Space space = box(4, -3.0, 3.0);
  AnnealingConfig config;
  config.iterations = 500;
  util::RandomStream rng(9, "sa");
  const double initial = sphere(space.center());
  const auto result = anneal(space, sphere, config, rng);
  EXPECT_LE(result.best_value, initial);
}

TEST(Annealing, MixedIntegerSpaceStaysFeasible) {
  const Space space({
      {"c", VarKind::kContinuous, -2.0, 2.0, false},
      {"i", VarKind::kInteger, 1.0, 6.0, false},
  });
  const Objective objective = [&](const Point& p) {
    EXPECT_TRUE(space.contains(p));
    return sphere(p);
  };
  AnnealingConfig config;
  config.iterations = 400;
  util::RandomStream rng(3, "sa");
  const auto result = anneal(space, objective, config, rng);
  EXPECT_DOUBLE_EQ(result.best_point[1], 1.0);  // integer minimum
}

TEST(Annealing, RejectsBadConfig) {
  const Space space = box(1, 0.0, 1.0);
  util::RandomStream rng(1, "sa");
  AnnealingConfig zero;
  zero.iterations = 0;
  EXPECT_THROW(anneal(space, sphere, zero, rng), std::invalid_argument);
  AnnealingConfig bad_temp;
  bad_temp.final_temperature = 2.0;
  bad_temp.initial_temperature = 1.0;
  EXPECT_THROW(anneal(space, sphere, bad_temp, rng), std::invalid_argument);
  EXPECT_THROW(anneal(Space(std::vector<Variable>{}), sphere,
                      AnnealingConfig{}, rng),
               std::invalid_argument);
}

TEST(Annealing, ObserverSeesEveryEvaluation) {
  const Space space = box(2, -5.0, 5.0);
  AnnealingConfig config;
  config.iterations = 120;
  config.restarts = 2;
  std::size_t calls = 0;
  const Objective counting = [&](const Point& p) {
    ++calls;
    return sphere(p);
  };
  util::RandomStream rng(3, "sa");
  const auto result = anneal(space, counting, config, rng);

  ASSERT_EQ(result.steps.size(), calls);
  // Each chain opens with an iteration-0 step that is always accepted.
  std::size_t chain_starts = 0;
  double best_so_far = result.steps.front().best_value;
  for (const AnnealStep& s : result.steps) {
    if (s.iteration == 0) {
      ++chain_starts;
      EXPECT_TRUE(s.accepted);
    }
    // best_value is monotone non-increasing across the whole search.
    EXPECT_LE(s.best_value, best_so_far + 1e-12);
    best_so_far = s.best_value;
    EXPECT_GT(s.temperature, 0.0);
    // An improving move is an accepted one.
    EXPECT_TRUE(s.accepted || !s.improved);
  }
  EXPECT_EQ(chain_starts, config.restarts);
  EXPECT_EQ(result.steps.back().best_value, result.best_value);
}

TEST(Annealing, CountsAcceptedAndImprovingMoves) {
  const Space space = box(2, -5.0, 5.0);
  AnnealingConfig config;
  config.iterations = 1000;
  util::RandomStream rng(11, "sa");
  const auto result = anneal(space, sphere, config, rng);
  std::size_t accepted = 0, improved = 0;
  for (const AnnealStep& s : result.steps) {
    if (s.iteration == 0) continue;  // the chain's start, not a move
    accepted += s.accepted ? 1 : 0;
    improved += s.improved ? 1 : 0;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GE(accepted, improved);
}

TEST(Annealing, RestartsPickBestChainAndSumEvaluations) {
  const Space space = box(2, -5.0, 5.0);
  AnnealingConfig config;
  config.iterations = 240;
  config.restarts = 4;
  util::RandomStream rng(17, "sa");
  const auto result = anneal(space, sphere, config, rng);
  const std::vector<AnnealStep>& steps = result.steps;

  // The chains together exhaust the budget (each chain gets its
  // near-equal share of config.iterations).
  EXPECT_GE(steps.size(), config.iterations - config.restarts);
  EXPECT_LE(steps.size(), config.iterations);

  // The returned best is the minimum over every chain's own best.
  std::vector<double> chain_best(config.restarts,
                                 std::numeric_limits<double>::infinity());
  std::vector<std::size_t> chain_steps(config.restarts, 0);
  for (const AnnealStep& s : steps) {
    ASSERT_LT(s.chain, config.restarts);
    chain_best[s.chain] = std::min(chain_best[s.chain], s.candidate_value);
    ++chain_steps[s.chain];
  }
  const double overall =
      *std::min_element(chain_best.begin(), chain_best.end());
  EXPECT_DOUBLE_EQ(result.best_value, overall);

  // Every chain appears exactly once, as one contiguous chain-major
  // block: iteration restarts from 0 precisely at each chain boundary.
  for (std::size_t c = 0; c < config.restarts; ++c) {
    EXPECT_GT(chain_steps[c], 0u) << "chain " << c << " never observed";
  }
  std::size_t boundaries = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].iteration == 0) {
      ++boundaries;
      EXPECT_EQ(steps[i].chain, boundaries - 1);  // chains in index order
    } else {
      EXPECT_EQ(steps[i].chain, steps[i - 1].chain);
      EXPECT_EQ(steps[i].iteration, steps[i - 1].iteration + 1);
    }
  }
  EXPECT_EQ(boundaries, config.restarts);
}

TEST(Annealing, PoolAndSerialChainsAreBitIdentical) {
  const Space space = box(3, -5.0, 5.0);
  AnnealingConfig config;
  config.iterations = 300;
  config.restarts = 4;

  util::RandomStream rng_serial(23, "sa");
  const auto serial = anneal(space, rastrigin, config, rng_serial);

  exec::ThreadPool pool(3);
  config.pool = &pool;
  util::RandomStream rng_pooled(23, "sa");
  const auto pooled = anneal(space, rastrigin, config, rng_pooled);

  EXPECT_EQ(serial.best_point, pooled.best_point);
  EXPECT_EQ(serial.best_value, pooled.best_value);
  const std::vector<AnnealStep>& serial_steps = serial.steps;
  const std::vector<AnnealStep>& pooled_steps = pooled.steps;
  ASSERT_EQ(serial_steps.size(), pooled_steps.size());
  for (std::size_t i = 0; i < serial_steps.size(); ++i) {
    EXPECT_EQ(serial_steps[i].chain, pooled_steps[i].chain);
    EXPECT_EQ(serial_steps[i].iteration, pooled_steps[i].iteration);
    EXPECT_EQ(serial_steps[i].candidate_value,
              pooled_steps[i].candidate_value);
    EXPECT_EQ(serial_steps[i].current_value, pooled_steps[i].current_value);
    EXPECT_EQ(serial_steps[i].best_value, pooled_steps[i].best_value);
    EXPECT_EQ(serial_steps[i].accepted, pooled_steps[i].accepted);
    EXPECT_EQ(serial_steps[i].improved, pooled_steps[i].improved);
    EXPECT_EQ(serial_steps[i].temperature, pooled_steps[i].temperature);
  }
}

TEST(Annealing, ChainObjectiveFactoryIsCalledOncePerChain) {
  const Space space = box(2, -5.0, 5.0);
  AnnealingConfig config;
  config.iterations = 80;
  config.restarts = 3;
  std::vector<std::size_t> made;
  std::vector<std::size_t> calls(config.restarts, 0);
  config.chain_objective = [&](std::size_t chain) -> Objective {
    made.push_back(chain);
    return [&calls, chain](const Point& p) {
      ++calls[chain];
      return sphere(p);
    };
  };
  util::RandomStream rng(31, "sa");
  const auto result = anneal(space, Objective{}, config, rng);
  EXPECT_EQ(made, (std::vector<std::size_t>{0, 1, 2}));
  std::size_t total = 0;
  for (const std::size_t c : calls) {
    EXPECT_GT(c, 0u);
    total += c;
  }
  EXPECT_EQ(total, result.steps.size());
}

}  // namespace
}  // namespace scal::opt
