#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

namespace scal::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_THROW(q.next_time(), std::logic_error);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(3.0, [&] { fired.push_back(3); });
  q.push(1.0, [&] { fired.push_back(1); });
  q.push(2.0, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.push(5.0, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NextTimeMatchesEarliest) {
  EventQueue q;
  q.push(7.0, [] {});
  q.push(2.5, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 2.5);
}

TEST(EventQueue, CancelPendingEvent) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(1.0, [&] { fired = true; });
  q.push(2.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  while (!q.empty()) q.pop().fn();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelFiredEventReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAllThenEmpty) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(q.push(i, [] {}));
  for (const EventId id : ids) EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(EventQueue, InterleavedPushPopKeepsOrder) {
  EventQueue q;
  std::vector<double> popped;
  q.push(10.0, [] {});
  q.push(1.0, [] {});
  popped.push_back(q.pop().at);
  q.push(5.0, [] {});
  q.push(0.5, [] {});  // earlier than already-popped is allowed here;
                       // the Simulator is what enforces causality
  popped.push_back(q.pop().at);
  popped.push_back(q.pop().at);
  popped.push_back(q.pop().at);
  EXPECT_EQ(popped, (std::vector<double>{1.0, 0.5, 5.0, 10.0}));
}

TEST(EventQueue, TracksTotalPushed) {
  EventQueue q;
  for (int i = 0; i < 4; ++i) q.push(1.0, [] {});
  EXPECT_EQ(q.total_pushed(), 4u);
}

TEST(EventQueue, CancelThenPopSkipsCancelled) {
  // Cancellation is eager: the event leaves the heap immediately, so a
  // pop right after a cancel must hand out the next live event, and
  // size() must never count cancelled entries (the old lazy-cancel
  // design double-counted buried tombstones).
  EventQueue q;
  std::vector<int> fired;
  q.push(1.0, [&] { fired.push_back(1); });
  const EventId second = q.push(2.0, [&] { fired.push_back(2); });
  q.push(3.0, [&] { fired.push_back(3); });
  EXPECT_TRUE(q.cancel(second));
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CancelAfterFireIsRejectedEvenWhenSlotReused) {
  EventQueue q;
  const EventId first = q.push(1.0, [] {});
  q.pop();  // fires `first`; its arena slot returns to the free list
  // The next push reuses the slot; the stale id must not cancel it.
  bool fired = false;
  const EventId second = q.push(2.0, [&] { fired = true; });
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(second));
  EXPECT_FALSE(fired);
}

TEST(EventQueue, TieBreakSurvivesSameTimestampCancelChurn) {
  // Heavy same-timestamp churn with interleaved cancels: the survivors
  // must still fire in insertion order.  Heap-erase moves entries
  // around, so this pins that the (time, seq) keys — not heap positions
  // — define the order.
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 300; ++i) {
    ids.push_back(q.push(5.0, [&fired, i] { fired.push_back(i); }));
  }
  std::vector<int> expect;
  for (int i = 0; i < 300; ++i) {
    if (i % 3 == 1) {
      EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
    } else {
      expect.push_back(i);
    }
  }
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, expect);
}

TEST(EventQueue, MixedTimestampCancelPopsInOrder) {
  // Pseudo-random times with a cancelled subset: remaining events pop
  // in nondecreasing time order.
  EventQueue q;
  std::vector<EventId> ids;
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 500; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    ids.push_back(q.push(static_cast<double>(x % 1000), [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    EXPECT_TRUE(q.cancel(ids[i]));
  }
  double last = -1.0;
  while (!q.empty()) {
    const double at = q.pop().at;
    EXPECT_GE(at, last);
    last = at;
  }
}

TEST(EventQueue, ArenaSlotsAreReused) {
  // Steady-state churn must not grow the arena: pushed-then-popped
  // slots go back to the free list and get handed out again.
  EventQueue q;
  for (int round = 0; round < 100; ++round) {
    q.push(static_cast<double>(round), [] {});
    q.push(static_cast<double>(round) + 0.5, [] {});
    q.pop();
    q.pop();
  }
  EXPECT_LE(q.arena_size(), 2u);
  EXPECT_EQ(q.total_pushed(), 200u);
}

TEST(EventQueue, CancelOfForeignIdIsRejected) {
  EventQueue q;
  q.push(1.0, [] {});
  // Slot index far beyond the arena: must be rejected, not crash.
  EXPECT_FALSE(q.cancel(static_cast<EventId>(0xFFFFFFFFull)));
}

TEST(EventQueue, PeekTimeMatchesNextTime) {
  EventQueue q;
  q.push(4.0, [] {});
  q.push(1.5, [] {});
  EXPECT_DOUBLE_EQ(q.peek_time(), q.next_time());
  EXPECT_DOUBLE_EQ(q.peek_time(), 1.5);
}

// ---------------------------------------------------------------------
// Differential test: a seeded random sequence of push / cancel / pop /
// fire operations checked against a reference that shares no
// code with the kernel — a std::map ordered by (time, insertion seq).
// Times come from a coarse grid so ties are common, plus the awkward
// doubles: -0.0 next to +0.0, subnormals, values around 2^60, +-inf and
// negatives.

class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

std::vector<double> awkward_times() {
  std::vector<double> t;
  for (int k = 0; k < 48; ++k) t.push_back(0.5 * k);  // coarse grid
  const double two60 = std::ldexp(1.0, 60);
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double x :
       {-0.0, 0.0, denorm, 2 * denorm,
        std::numeric_limits<double>::min(),
        std::nextafter(std::numeric_limits<double>::min(), 0.0),
        std::nextafter(two60, 0.0), two60, std::nextafter(two60, inf),
        3 * two60, std::numeric_limits<double>::max(), inf, -1.0, -0.5,
        -denorm, -two60, -inf}) {
    t.push_back(x);
  }
  return t;
}

struct Reference {
  // (time, insertion seq) -> tag; std::pair compares doubles with <, so
  // -0.0 and +0.0 tie and fall back to the sequence.
  std::map<std::pair<double, std::uint64_t>, int> live;
  std::uint64_t seq = 0;
};

struct Issued {
  EventId id;
  std::pair<double, std::uint64_t> key;
  int tag;
};

// Apply `ops` random operations to `q` and a fresh reference, checking
// every observable; returns the popped (time, tag) sequence.
std::vector<std::pair<double, int>> run_differential(EventQueue& q,
                                                     std::uint64_t seed,
                                                     std::size_t ops) {
  const std::vector<double> times = awkward_times();
  SplitMix rng(seed);
  Reference ref;
  std::vector<Issued> issued;  // every id handed out, stale ones too
  std::vector<std::pair<double, int>> popped;
  int next_tag = 0;
  int fired = -1;

  auto check_top = [&] {
    EXPECT_EQ(q.size(), ref.live.size());
    EXPECT_EQ(q.empty(), ref.live.empty());
    if (!ref.live.empty()) {
      // Times come back as at + 0.0: compare values, not sign bits.
      EXPECT_EQ(q.peek_time(), ref.live.begin()->first.first);
      EXPECT_EQ(q.next_time(), q.peek_time());
    }
  };
  auto take_ref_top = [&] {
    const auto top = ref.live.begin();
    const std::pair<double, int> out{top->first.first, top->second};
    ref.live.erase(top);
    return out;
  };

  for (std::size_t op = 0; op < ops; ++op) {
    const std::size_t roll = rng.below(1000);
    // Alternating phases of 10k operations grow the queue to ~2,500
    // events and drain it back to a few dozen.
    const bool up = ref.live.size() < 64 || (op / 10000) % 2 == 0;
    if (roll < (up ? 550u : 250u)) {
      const double at = times[rng.below(times.size())];
      const int tag = next_tag++;
      const EventId id = q.push(at, [&fired, tag] { fired = tag; });
      const std::pair<double, std::uint64_t> key{at, ref.seq++};
      ref.live.emplace(key, tag);
      issued.push_back({id, key, tag});
      EXPECT_EQ(q.total_pushed(), ref.seq);
    } else if (roll < 850) {
      if (ref.live.empty()) {
        EXPECT_THROW(q.pop(), std::logic_error);
        continue;
      }
      const auto expect = take_ref_top();
      const double at = q.peek_time();
      fired = -1;
      if (rng.below(2) == 0) {
        EventQueue::Popped out = q.pop();
        EXPECT_EQ(out.at, at);
        EXPECT_EQ(out.id, issued[static_cast<std::size_t>(expect.second)].id);
        out.fn();
      } else {
        q.fire_top();
      }
      EXPECT_EQ(at, expect.first);
      EXPECT_EQ(fired, expect.second);
      popped.emplace_back(at, fired);
    } else if (roll < 960) {
      // Cancel an issued id: pending ones succeed, stale ones (fired or
      // cancelled) are rejected.
      if (issued.empty()) continue;
      const Issued& pick = issued[rng.below(issued.size())];
      const auto it = ref.live.find(pick.key);
      const bool pending = it != ref.live.end() && it->second == pick.tag;
      EXPECT_EQ(q.cancel(pick.id), pending);
      if (pending) ref.live.erase(it);
    } else {
      // Foreign ids: a slot no queue hands out, or a generation no slot
      // reaches within this run.
      const EventId forged =
          rng.below(2) == 0
              ? (rng.next() << 32) | (0x01000000u + rng.below(1u << 20))
              : (EventId{0x80000000u + rng.below(1u << 30)} << 32) |
                    rng.below(4096);
      EXPECT_FALSE(q.cancel(forged));
    }
    check_top();
    if (::testing::Test::HasFailure()) break;  // one report, not 100k
  }
  // Drain: the rest must come out in reference order too.
  while (!ref.live.empty() && !::testing::Test::HasFailure()) {
    const auto expect = take_ref_top();
    const double at = q.peek_time();
    fired = -1;
    q.fire_top();
    EXPECT_EQ(at, expect.first);
    EXPECT_EQ(fired, expect.second);
    popped.emplace_back(at, fired);
  }
  EXPECT_TRUE(q.empty());
  return popped;
}

TEST(EventQueueDifferential, MatchesOrderedMapReference) {
  EventQueue q;
  const auto popped = run_differential(q, 20240611, 150000);
  EXPECT_GT(popped.size(), 30000u);
}

}  // namespace
}  // namespace scal::sim
