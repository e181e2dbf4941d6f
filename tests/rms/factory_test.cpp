// Factory wiring: every RMS kind constructs, and the policy surface
// flags (middleware usage, idle-event subscription) match the paper's
// protocol families.

#include <gtest/gtest.h>

#include <map>

#include "rms/scenario.hpp"

namespace scal::rms {
namespace {

grid::GridConfig tiny(grid::RmsKind kind) {
  grid::GridConfig config;
  config.rms = kind;
  config.topology.nodes = 60;
  config.horizon = 50.0;
  config.workload.mean_interarrival = 5.0;
  return config;
}

TEST(Factory, EveryKindConstructsAndRuns) {
  for (const grid::RmsKind kind :
       {grid::RmsKind::kCentral, grid::RmsKind::kLowest,
        grid::RmsKind::kReserve, grid::RmsKind::kAuction,
        grid::RmsKind::kSenderInitiated, grid::RmsKind::kReceiverInitiated,
        grid::RmsKind::kSymmetric, grid::RmsKind::kHierarchical,
        grid::RmsKind::kRandom}) {
    EXPECT_NO_THROW({
      const auto r = Scenario(tiny(kind)).run();
      (void)r;
    }) << grid::to_string(kind);
  }
}

TEST(Factory, MiddlewareFamilyFlags) {
  // The superscheduler family routes through the middleware; nobody
  // else does.  Observable through the scheduler objects themselves.
  const std::map<grid::RmsKind, bool> expect_middleware = {
      {grid::RmsKind::kCentral, false},
      {grid::RmsKind::kLowest, false},
      {grid::RmsKind::kReserve, false},
      {grid::RmsKind::kAuction, false},
      {grid::RmsKind::kSenderInitiated, true},
      {grid::RmsKind::kReceiverInitiated, true},
      {grid::RmsKind::kSymmetric, true},
      {grid::RmsKind::kHierarchical, false},
      {grid::RmsKind::kRandom, false},
  };
  for (const auto& [kind, uses] : expect_middleware) {
    auto system = Scenario(tiny(kind)).build();
    EXPECT_EQ(system->scheduler_for(0).uses_middleware(), uses)
        << grid::to_string(kind);
  }
}

TEST(Factory, IdleEventSubscribers) {
  // Only the PUSH+PULL pair reacts to idle events from the estimator
  // stream.
  const std::map<grid::RmsKind, bool> expect_idle = {
      {grid::RmsKind::kCentral, false},
      {grid::RmsKind::kLowest, false},
      {grid::RmsKind::kReserve, false},
      {grid::RmsKind::kAuction, true},
      {grid::RmsKind::kSenderInitiated, false},
      {grid::RmsKind::kReceiverInitiated, false},
      {grid::RmsKind::kSymmetric, true},
      {grid::RmsKind::kHierarchical, false},
      {grid::RmsKind::kRandom, false},
  };
  for (const auto& [kind, wants] : expect_idle) {
    auto system = Scenario(tiny(kind)).build();
    EXPECT_EQ(system->scheduler_for(0).wants_idle_events(), wants)
        << grid::to_string(kind);
  }
}

}  // namespace
}  // namespace scal::rms
