// Validation of the resource service layer against closed-form queueing
// theory: an M/M/1 station must reproduce W = 1/(mu - lambda), and a
// bank of randomly-addressed stations must behave like independent
// M/M/1 queues.  These anchor the simulator's timing core to ground
// truth beyond self-consistency.

#include <gtest/gtest.h>

#include "grid/resource.hpp"
#include "util/rng.hpp"

namespace scal::grid {
namespace {

struct Station {
  sim::Simulator sim;
  MetricsCollector metrics;
  std::vector<std::unique_ptr<Resource>> resources;

  explicit Station(std::size_t count, double service_rate = 1.0) {
    for (std::size_t i = 0; i < count; ++i) {
      resources.push_back(std::make_unique<Resource>(
          sim, static_cast<sim::EntityId>(i), 0,
          static_cast<ResourceIndex>(i), service_rate,
          /*job_control=*/0.0, metrics, [](const StatusUpdate&) {}));
    }
  }
};

workload::Job exp_job(util::RandomStream& rng, workload::JobId id,
                      double arrival, double mean_demand) {
  workload::Job j;
  j.id = id;
  j.arrival = arrival;
  j.exec_time = rng.exponential(mean_demand);
  j.benefit_factor = 1e18;  // success bookkeeping is irrelevant here
  return j;
}

TEST(QueueingTheory, MM1MeanResponseMatchesFormula) {
  // lambda = 0.7, mu = 1.0 -> W = 1/(mu - lambda) = 3.333...
  Station station(1);
  util::RandomStream arrivals(42, "mm1-arrivals");
  util::RandomStream demands(42, "mm1-demands");
  double t = 0.0;
  const std::size_t n = 60000;
  for (std::size_t i = 0; i < n; ++i) {
    t += arrivals.exponential(1.0 / 0.7);
    workload::Job j = exp_job(demands, i, t, 1.0);
    station.sim.schedule_at(t, [&station, j]() {
      station.resources[0]->accept_job(j);
    });
  }
  station.sim.run();
  ASSERT_EQ(station.metrics.snapshot().jobs_completed, n);
  EXPECT_NEAR(station.metrics.response_mean(), 1.0 / (1.0 - 0.7),
              0.25);
}

TEST(QueueingTheory, MM1UtilizationMatchesRho) {
  Station station(1);
  util::RandomStream arrivals(7, "mm1-arrivals");
  util::RandomStream demands(7, "mm1-demands");
  double t = 0.0;
  const double horizon = 50000.0;
  std::size_t i = 0;
  while (t < horizon) {
    t += arrivals.exponential(2.0);  // lambda = 0.5
    workload::Job j = exp_job(demands, i++, t, 1.0);
    if (t >= horizon) break;
    station.sim.schedule_at(t, [&station, j]() {
      station.resources[0]->accept_job(j);
    });
  }
  station.sim.run(horizon);
  EXPECT_NEAR(station.resources[0]->busy_time() / horizon, 0.5, 0.03);
}

TEST(QueueingTheory, RandomDispatchBankBehavesLikeParallelMM1) {
  // 8 stations, uniform random dispatch, lambda_total = 4.8, mu = 1:
  // each station is M/M/1 with rho = 0.6 -> W = 1/(1 - 0.6) = 2.5.
  const std::size_t c = 8;
  Station station(c);
  util::RandomStream arrivals(11, "bank-arrivals");
  util::RandomStream demands(11, "bank-demands");
  util::RandomStream pick(11, "bank-pick");
  double t = 0.0;
  const std::size_t n = 120000;
  for (std::size_t i = 0; i < n; ++i) {
    t += arrivals.exponential(1.0 / 4.8);
    workload::Job j = exp_job(demands, i, t, 1.0);
    const auto target = static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(c) - 1));
    station.sim.schedule_at(t, [&station, target, j]() {
      station.resources[target]->accept_job(j);
    });
  }
  station.sim.run();
  EXPECT_NEAR(station.metrics.response_mean(), 2.5, 0.25);
}

TEST(QueueingTheory, JoinShortestQueueBeatsRandomDispatch) {
  // Same offered load; JSQ (exact instantaneous loads) must cut the
  // mean response versus random dispatch — the entire premise of
  // status-driven RMS policies.
  const std::size_t c = 8;
  const std::size_t n = 60000;

  auto run = [&](bool jsq) {
    Station station(c);
    util::RandomStream arrivals(13, "jsq-arrivals");
    util::RandomStream demands(13, "jsq-demands");
    util::RandomStream pick(13, "jsq-pick");
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      t += arrivals.exponential(1.0 / 5.6);  // rho = 0.7
      workload::Job j = exp_job(demands, i, t, 1.0);
      station.sim.schedule_at(t, [&station, &pick, jsq, j]() {
        std::size_t target = 0;
        if (jsq) {
          for (std::size_t r = 1; r < station.resources.size(); ++r) {
            if (station.resources[r]->load() <
                station.resources[target]->load()) {
              target = r;
            }
          }
        } else {
          target = static_cast<std::size_t>(pick.uniform_int(
              0, static_cast<std::int64_t>(station.resources.size()) - 1));
        }
        station.resources[target]->accept_job(j);
      });
    }
    station.sim.run();
    return station.metrics.response_mean();
  };

  const double w_random = run(false);
  const double w_jsq = run(true);
  EXPECT_LT(w_jsq, 0.7 * w_random);
}

}  // namespace
}  // namespace scal::grid
