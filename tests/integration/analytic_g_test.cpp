// Analytic validation of the overhead accounting: with status updates
// disabled (report interval beyond the horizon) and load low enough
// that the scheduler servers never queue meaningfully, G_scheduler must
// equal the closed-form sum of the per-action costs times the observed
// action counts.  This pins the cost model to the measurement — if an
// action is double-charged or missed, these tests break.

#include <gtest/gtest.h>

#include "rms/scenario.hpp"

namespace scal {
namespace {

grid::GridConfig quiet_config(grid::RmsKind kind) {
  grid::GridConfig config;
  config.rms = kind;
  config.topology.nodes = 100;
  config.cluster_size = 20;
  config.horizon = 2000.0;
  config.workload.mean_interarrival = 4.0;  // low load: no queueing
  // Push the first status report past the horizon: no update traffic,
  // no idle events, tables stay at their optimistic zero state.
  config.tuning.update_interval = 1e9;
  config.seed = 3;
  return config;
}

TEST(AnalyticG, CentralIsPureDecisionCost) {
  const grid::GridConfig config = quiet_config(grid::RmsKind::kCentral);
  const auto r = Scenario(config).run();
  ASSERT_GT(r.jobs_arrived, 100u);
  EXPECT_EQ(r.updates_received, 0u);

  // Tracked resources: all clusters' tables.
  const double resources =
      static_cast<double>(config.cluster_count() *
                          (config.cluster_size - 1 -
                           config.estimators_per_cluster));
  const double per_decision =
      config.costs.sched_decision_base +
      config.costs.sched_decision_per_candidate * resources;
  const double expected =
      static_cast<double>(r.jobs_arrived) * per_decision;
  EXPECT_NEAR(r.G_scheduler, expected, 0.05 * expected);
}

/// The policies that place REMOTE jobs with the shared poll round
/// (AUCTION's initial placement is LOWEST's; with no status reports it
/// never sees an idle resource, so it holds no auction).
constexpr grid::RmsKind kPollRoundKinds[] = {
    grid::RmsKind::kLowest, grid::RmsKind::kSenderInitiated,
    grid::RmsKind::kAuction};

TEST(AnalyticG, LowestIsDecisionsPollsTransfers) {
  for (const grid::RmsKind kind : kPollRoundKinds) {
    SCOPED_TRACE(grid::to_string(kind));
    const grid::GridConfig config = quiet_config(kind);
    const auto r = Scenario(config).run();
    ASSERT_GT(r.polls, 0u);
    EXPECT_EQ(r.auctions, 0u);

    const double local_resources = static_cast<double>(
        config.cluster_size - 1 - config.estimators_per_cluster);
    const double per_decision =
        config.costs.sched_decision_base +
        config.costs.sched_decision_per_candidate * local_resources;
    // Each poll (request) costs: send + receive + reply-send +
    // reply-receive, all at sched_poll.
    const double poll_cost =
        static_cast<double>(r.polls) * 4.0 * config.costs.sched_poll;
    // Each transfer costs sched_transfer at sender and receiver.
    const double transfer_cost = static_cast<double>(r.transfers) * 2.0 *
                                 config.costs.sched_transfer;
    // Work-in-system also contains the sender-side burst serialization:
    // a round's L_p send items queue behind one another, adding
    // sched_poll * (0 + 1 + ... + (L_p - 1)) of waiting per round.
    const double lp = static_cast<double>(config.tuning.neighborhood_size);
    const double rounds = static_cast<double>(r.polls) / lp;
    const double burst_wait =
        rounds * config.costs.sched_poll * lp * (lp - 1.0) / 2.0;
    const double expected =
        static_cast<double>(r.jobs_arrived) * per_decision + poll_cost +
        transfer_cost + burst_wait;
    EXPECT_NEAR(r.G_scheduler, expected, 0.05 * expected);
  }
}

TEST(AnalyticG, PollCountMatchesRemoteJobsTimesLp) {
  for (const grid::RmsKind kind : kPollRoundKinds) {
    SCOPED_TRACE(grid::to_string(kind));
    const grid::GridConfig config = quiet_config(kind);
    const auto r = Scenario(config).run();
    // With no status traffic and no faults, every REMOTE job polls
    // exactly L_p peers once: no round is skipped or retried.
    EXPECT_EQ(r.polls,
              r.jobs_remote * config.tuning.neighborhood_size);
  }
}

TEST(AnalyticG, MiddlewareChargesPerHopMessage) {
  const grid::GridConfig config =
      quiet_config(grid::RmsKind::kSenderInitiated);
  const auto r = Scenario(config).run();
  // Every poll, reply, and transfer of the S-I family crosses the
  // middleware once.  Work-in-system ~ busy time at this load.
  const double messages = static_cast<double>(2 * r.polls + r.transfers);
  const double expected = messages * config.costs.middleware_service;
  EXPECT_NEAR(r.G_middleware, expected, 0.10 * expected);
}

TEST(AnalyticG, ControlOverheadIsPerCompletionExact) {
  const grid::GridConfig config = quiet_config(grid::RmsKind::kLowest);
  const auto r = Scenario(config).run();
  const double expected = static_cast<double>(r.jobs_completed) *
                          config.costs.job_control /
                          config.service_rate;
  EXPECT_NEAR(r.H_control, expected, 1e-6 * expected);
}

}  // namespace
}  // namespace scal
