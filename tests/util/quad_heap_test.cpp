#include "util/quad_heap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace scal::util {
namespace {

using Key = QuadHeap::Key;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(QuadHeap, MatchesSortedReferenceWhenLowWordsDecide) {
  // Eight distinct high words over thousands of entries, so most
  // compares tie on the value and the tag decides; pushes and pops
  // interleave so the heap grows and drains several times.
  RandomStream rng(7, "quad-heap");
  QuadHeap heap;
  std::multiset<Key> reference;
  for (int step = 0; step < 20000; ++step) {
    const double push_odds = (step / 4000) % 2 == 0 ? 0.7 : 0.3;
    const bool push = reference.empty() || rng.bernoulli(push_odds);
    if (push) {
      const double value = static_cast<double>(rng.uniform_int(0, 7)) - 3.5;
      const auto tag = static_cast<std::uint64_t>(rng.uniform_int(0, 999));
      const Key key = QuadHeap::key(value, tag);
      heap.push(key);
      reference.insert(key);
    } else {
      ASSERT_EQ(heap.pop(), *reference.begin()) << "step " << step;
      reference.erase(reference.begin());
    }
    ASSERT_EQ(heap.size(), reference.size());
    ASSERT_EQ(heap.empty(), reference.empty());
  }
  while (!reference.empty()) {
    ASSERT_EQ(heap.pop(), *reference.begin());
    reference.erase(reference.begin());
  }
  EXPECT_TRUE(heap.empty());
}

TEST(QuadHeap, KeysOrderByValueThenTag) {
  const Key low_tag = QuadHeap::key(1.0, 5);
  EXPECT_LT(QuadHeap::key(1.0, 4), low_tag);
  EXPECT_LT(low_tag, QuadHeap::key(1.0, 6));
  EXPECT_LT(QuadHeap::key(0.5, ~std::uint64_t{0}), low_tag);
  EXPECT_EQ(QuadHeap::value_of(low_tag), 1.0);
  EXPECT_EQ(QuadHeap::tag_of(low_tag), 5u);
}

TEST(QuadHeap, OrderKeySortsLikeTheDoubles) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  // Ascending; -0.0 and +0.0 are equal doubles and must map equal.
  const std::vector<double> ascending = {
      -kInf, -kMax, -1e300, -2.5, -1.0, -1e-300, -kTiny, -0.0, 0.0,
      kTiny, 1e-300, 1.0, 2.5, 1e300, kMax, kInf};
  for (const double a : ascending) {
    for (const double b : ascending) {
      EXPECT_EQ(order_key(a) < order_key(b), a < b) << a << " vs " << b;
      EXPECT_EQ(order_key(a) == order_key(b), a == b) << a << " vs " << b;
    }
    // Round trip, with -0.0 coming back as +0.0.
    EXPECT_EQ(bits(order_value(order_key(a))), bits(a + 0.0)) << a;
  }
  EXPECT_EQ(order_key(-0.0), order_key(0.0));
  // Every non-NaN key sorts below a pad's high word.
  EXPECT_LT(order_key(kInf), static_cast<std::uint64_t>(QuadHeap::kPad >> 64));
}

TEST(QuadHeap, PadsNeverSurface) {
  // Live keys just below a pad, in the high word and in the low word,
  // pushed in an order that puts pads beside them as the heap drains.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<Key> keys = {
      QuadHeap::kPad - 1,
      QuadHeap::key(kInf, ~std::uint64_t{0}),
      QuadHeap::key(kInf, 0),
      QuadHeap::key(1e300, 3),
      QuadHeap::key(0.0, 0),
      QuadHeap::key(-kInf, 0),
      QuadHeap::kPad - 2};
  for (std::size_t live = 1; live <= keys.size(); ++live) {
    QuadHeap heap;
    std::vector<Key> pushed(keys.begin(), keys.begin() + live);
    for (const Key key : pushed) heap.push(key);
    std::sort(pushed.begin(), pushed.end());
    for (const Key want : pushed) {
      ASSERT_FALSE(heap.empty());
      const Key got = heap.pop();
      ASSERT_NE(got, QuadHeap::kPad);
      ASSERT_EQ(got, want);
    }
    EXPECT_TRUE(heap.empty());
    EXPECT_EQ(heap.size(), 0u);
  }
}

TEST(QuadHeap, CopyHoldsOnlyLiveEntriesAndPads) {
  // Popping shrinks the storage, so a copy of a drained heap holds the
  // kArity - 1 pads and nothing of its peak.
  QuadHeap heap;
  for (std::uint64_t i = 0; i < 1000; ++i) heap.push(QuadHeap::key(1.0, i));
  for (int i = 0; i < 990; ++i) (void)heap.pop();
  QuadHeap copy = heap;
  EXPECT_EQ(copy.size(), 10u);
  EXPECT_EQ(copy.bytes(), (10 + QuadHeap::kArity - 1) * sizeof(Key));
  EXPECT_EQ(copy.pop(), QuadHeap::key(1.0, 990));
}

TEST(QuadHeap, SiftStepsReportEveryPlacement) {
  // The event queue's way of driving the sift steps: storage kept at its
  // high-water length, and a position index updated by the callback.
  // After every operation each live tag's recorded position must name
  // its own entry.
  RandomStream rng(11, "quad-heap-sift");
  std::vector<Key> storage(QuadHeap::kArity - 1, QuadHeap::kPad);
  std::vector<std::size_t> position(512, 0);
  std::size_t size = 0;
  std::vector<std::uint64_t> free_tags;
  for (std::uint64_t tag = 512; tag-- > 0;) free_tags.push_back(tag);
  const auto placed = [&position](Key key, std::size_t at) {
    position[QuadHeap::tag_of(key)] = at;
  };
  std::multiset<Key> reference;
  for (int step = 0; step < 5000; ++step) {
    const bool push =
        !free_tags.empty() && (size == 0 || rng.bernoulli(0.6));
    if (push) {
      if (storage.size() < size + QuadHeap::kArity) {
        storage.push_back(QuadHeap::kPad);
      }
      const std::uint64_t tag = free_tags.back();
      free_tags.pop_back();
      const Key key = QuadHeap::key(rng.uniform(0.0, 4.0), tag);
      QuadHeap::sift_up(storage.data(), size++, key, placed);
      reference.insert(key);
    } else {
      const Key top = storage[0];
      ASSERT_EQ(top, *reference.begin());
      reference.erase(reference.begin());
      free_tags.push_back(QuadHeap::tag_of(top));
      const std::size_t last = --size;
      const Key moved = storage[last];
      storage[last] = QuadHeap::kPad;
      if (last != 0) {
        QuadHeap::sift_down(storage.data(), size, 0, moved, placed);
      }
    }
    for (std::size_t i = 0; i < size; ++i) {
      ASSERT_EQ(position[QuadHeap::tag_of(storage[i])], i) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace scal::util
