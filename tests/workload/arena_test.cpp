// JobArena — the recycled-slot pool behind the streaming arrival path.
// The invariants under test: acquisitions recycle LIFO, addresses are
// stable while held, high_water tracks the true in-flight footprint,
// and misuse (foreign/double release, clearing while held) throws
// instead of corrupting the free list.

#include "workload/arena.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace scal::workload {
namespace {

TEST(JobArena, AcquireGrowsThenRecyclesLifo) {
  JobArena arena;
  Job* a = arena.acquire();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(arena.slots(), 1u);
  EXPECT_EQ(arena.in_use(), 1u);
  EXPECT_EQ(arena.reuses(), 0u);

  arena.release(a);
  EXPECT_EQ(arena.in_use(), 0u);

  // The freed slot comes straight back (LIFO keeps it cache-hot).
  Job* b = arena.acquire();
  EXPECT_EQ(b, a);
  EXPECT_EQ(arena.slots(), 1u);
  EXPECT_EQ(arena.reuses(), 1u);
  arena.release(b);
}

TEST(JobArena, HighWaterTracksPeakInFlight) {
  JobArena arena;
  Job* a = arena.acquire();
  Job* b = arena.acquire();
  Job* c = arena.acquire();
  EXPECT_EQ(arena.high_water(), 3u);
  arena.release(b);
  arena.release(c);
  // Draining does not lower the peak; reacquiring below it does not
  // raise it.
  Job* d = arena.acquire();
  EXPECT_EQ(arena.high_water(), 3u);
  EXPECT_EQ(arena.slots(), 3u);
  arena.release(d);
  arena.release(a);
  EXPECT_EQ(arena.high_water(), 3u);
  EXPECT_EQ(arena.in_use(), 0u);
}

TEST(JobArena, SlotAddressesStableWhileHeld) {
  JobArena arena;
  std::vector<Job*> held;
  for (int i = 0; i < 100; ++i) {
    Job* slot = arena.acquire();
    slot->id = static_cast<JobId>(i);
    held.push_back(slot);
  }
  // Growth must not have moved earlier slots (the streaming path holds
  // a raw pointer across arbitrary later acquisitions).
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(held[static_cast<std::size_t>(i)]->id,
              static_cast<JobId>(i));
  }
  for (Job* slot : held) arena.release(slot);
}

TEST(JobArena, MillionCycleReusesOneSlot) {
  JobArena arena;
  for (int i = 0; i < 1'000'000; ++i) {
    Job* slot = arena.acquire();
    arena.release(slot);
  }
  EXPECT_EQ(arena.slots(), 1u);
  EXPECT_EQ(arena.high_water(), 1u);
  EXPECT_EQ(arena.reuses(), 999'999u);
}

TEST(JobArena, DoubleReleaseThrows) {
  JobArena arena;
  Job* slot = arena.acquire();
  arena.release(slot);
  EXPECT_THROW(arena.release(slot), std::invalid_argument);
}

TEST(JobArena, ForeignReleaseThrows) {
  JobArena arena;
  JobArena other;
  Job* foreign = other.acquire();
  EXPECT_THROW(arena.release(foreign), std::invalid_argument);
  Job local;
  EXPECT_THROW(arena.release(&local), std::invalid_argument);
  other.release(foreign);
}

}  // namespace
}  // namespace scal::workload
