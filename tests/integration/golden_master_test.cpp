// Golden-master regression canary: one pinned configuration per policy
// family, with the headline counters asserted exactly.  Any change to
// the event ordering, RNG stream usage, cost model, or protocol logic
// moves these numbers — which is the point: such changes must be
// deliberate, and updating the constants here is the acknowledgment.
//
// To refresh after an intentional change:
//   build/tests/integration_test --gtest_filter='GoldenMaster.Print*'
// prints the current values in copy-pastable form.

#include <gtest/gtest.h>

#include <iostream>

#include "rms/scenario.hpp"

namespace scal {
namespace {

grid::GridConfig golden_config(grid::RmsKind kind) {
  grid::GridConfig config;
  config.rms = kind;
  config.topology.nodes = 100;
  config.cluster_size = 20;
  config.horizon = 500.0;
  config.workload.mean_interarrival = 1.0;
  config.seed = 20260705;
  return config;
}

struct Golden {
  grid::RmsKind kind;
  std::uint64_t arrived;
  std::uint64_t succeeded;
  std::uint64_t events;
};

// Pinned values for the current model (see header comment to refresh).
const Golden kGolden[] = {
    {grid::RmsKind::kCentral, 480, 387, 7419},
    {grid::RmsKind::kLowest, 480, 383, 9715},
    {grid::RmsKind::kSymmetric, 480, 381, 11682},
};
constexpr bool kGoldenRecorded = true;

TEST(GoldenMaster, PrintCurrentValues) {
  for (const grid::RmsKind kind :
       {grid::RmsKind::kCentral, grid::RmsKind::kLowest,
        grid::RmsKind::kSymmetric}) {
    const auto r = Scenario(golden_config(kind)).run();
    std::cout << "    {grid::RmsKind::k?" << grid::to_string(kind) << ", "
              << r.jobs_arrived << ", " << r.jobs_succeeded << ", "
              << r.events_dispatched << "},\n";
  }
  SUCCEED();
}

TEST(GoldenMaster, PinnedCountersMatch) {
  if (!kGoldenRecorded) {
    GTEST_SKIP() << "golden values not recorded yet";
  }
  for (const Golden& g : kGolden) {
    const auto r = Scenario(golden_config(g.kind)).run();
    EXPECT_EQ(r.jobs_arrived, g.arrived) << grid::to_string(g.kind);
    EXPECT_EQ(r.jobs_succeeded, g.succeeded) << grid::to_string(g.kind);
    EXPECT_EQ(r.events_dispatched, g.events) << grid::to_string(g.kind);
  }
}

}  // namespace
}  // namespace scal
