#include "opt/eval_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

namespace scal::opt {
namespace {

EvalKey key(double a, double b, std::uint64_t d0 = 1, std::uint64_t d1 = 2) {
  EvalKey k;
  k.digest = {d0, d1};
  k.point = {a, b};
  return k;
}

/// The ready value stored for `k`, read through snapshot() so the
/// probe leaves no claim behind.
std::optional<int> stored(const EvalCache<int>& cache, const EvalKey& k) {
  for (const auto& [entry_key, value] : cache.snapshot()) {
    if (entry_key == k) return value;
  }
  return std::nullopt;
}

TEST(EvalCache, MissThenHit) {
  EvalCache<int> cache;
  EXPECT_FALSE(cache.acquire(key(1.0, 2.0)).has_value());  // claimed
  cache.fulfill(key(1.0, 2.0), 42);
  EXPECT_EQ(cache.acquire(key(1.0, 2.0)), 42);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.in_flight_waits(), 0u);
  EXPECT_EQ(cache.disk_hits(), 0u);
}

TEST(EvalCache, KeysAreExactNoTolerance) {
  EvalCache<int> cache;
  cache.fulfill(key(1.0, 2.0), 1);
  // The tiniest coordinate perturbation is a different key: caching must
  // never be an approximation.
  EXPECT_FALSE(stored(cache, key(1.0 + 1e-15, 2.0)).has_value());
  // Same point under a different configuration digest is also distinct.
  EXPECT_FALSE(stored(cache, key(1.0, 2.0, 9, 2)).has_value());
  EXPECT_FALSE(stored(cache, key(1.0, 2.0, 1, 9)).has_value());
  EXPECT_FALSE(cache.acquire(key(1.0 + 1e-15, 2.0)).has_value());
  cache.abandon(key(1.0 + 1e-15, 2.0));
  EXPECT_EQ(stored(cache, key(1.0, 2.0)), 1);
}

TEST(EvalCache, FirstInsertWins) {
  EvalCache<int> cache;
  cache.fulfill(key(3.0, 4.0), 10);
  cache.fulfill(key(3.0, 4.0), 20);
  EXPECT_EQ(cache.acquire(key(3.0, 4.0)), 10);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EvalCache, ConcurrentHammerStaysConsistent) {
  // Many threads acquire an overlapping key set whose value is a pure
  // function of the key, fulfilling what they own — every hit must
  // return that function's value (first-value-wins over identical
  // values).
  EvalCache<int> cache;
  constexpr int kThreads = 8;
  constexpr int kKeys = 32;
  constexpr int kRounds = 200;
  std::vector<std::thread> threads;
  std::vector<int> bad_reads(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &bad_reads, t] {
      for (int round = 0; round < kRounds; ++round) {
        const int i = (round * 7 + t * 3) % kKeys;
        const EvalKey k = key(static_cast<double>(i), 0.5);
        const std::optional<int> got = cache.acquire(k);
        if (!got) {
          cache.fulfill(k, i * 10);
        } else if (*got != i * 10) {
          ++bad_reads[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const int bad : bad_reads) EXPECT_EQ(bad, 0);
  EXPECT_LE(cache.size(), static_cast<std::size_t>(kKeys));
  for (const auto& [k, value] : cache.snapshot()) {
    EXPECT_EQ(value, static_cast<int>(k.point[0]) * 10);
  }
}

TEST(EvalCacheAcquire, AbandonLetsWaiterReclaim) {
  EvalCache<int> cache;
  const EvalKey k = key(5.0, 5.0);
  ASSERT_FALSE(cache.acquire(k).has_value());
  std::atomic<bool> reclaimed{false};
  std::thread waiter([&] {
    if (!cache.acquire(k)) {  // blocks until abandon, then claims
      reclaimed = true;
      cache.fulfill(k, 11);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cache.abandon(k);
  waiter.join();
  EXPECT_TRUE(reclaimed);
  EXPECT_EQ(cache.acquire(k), 11);
  EXPECT_GE(cache.in_flight_waits(), 1u);
}

TEST(EvalCacheAcquire, InFlightDedupHammer) {
  // Many threads race acquire() over a small key set; owners sleep
  // before fulfilling so waiters really block.  Exactly one owner per
  // key, every non-owner gets the owner's value, no recomputation.
  EvalCache<int> cache;
  constexpr int kThreads = 8;
  constexpr int kKeys = 4;
  std::vector<std::atomic<int>> owners(kKeys);
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kKeys; ++i) {
        const EvalKey k = key(static_cast<double>(i), 0.25);
        const std::optional<int> got = cache.acquire(k);
        if (!got) {
          owners[static_cast<std::size_t>(i)]++;
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          cache.fulfill(k, i * 100);
        } else if (*got != i * 100) {
          ++bad;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(bad, 0);
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(owners[static_cast<std::size_t>(i)].load(), 1)
        << "key " << i << " evaluated more than once";
  }
}

TEST(EvalCachePersist, PreloadMarksEntriesFromDisk) {
  EvalCache<int> cache;
  cache.preload(key(1.0, 1.0), 5);
  EXPECT_EQ(cache.preloaded(), 1u);
  EXPECT_EQ(cache.acquire(key(1.0, 1.0)), 5);
  EXPECT_EQ(cache.disk_hits(), 1u);
  // Preload is first-wins: it never clobbers a computed entry, and a
  // computed entry's hits are not disk hits.
  cache.fulfill(key(2.0, 2.0), 7);
  cache.preload(key(2.0, 2.0), 8);
  EXPECT_EQ(cache.acquire(key(2.0, 2.0)), 7);
  EXPECT_EQ(cache.preloaded(), 1u);
  EXPECT_EQ(cache.disk_hits(), 1u);
}

TEST(EvalCachePersist, SnapshotSkipsInFlightClaims) {
  EvalCache<int> cache;
  cache.fulfill(key(1.0, 1.0), 1);
  cache.fulfill(key(2.0, 2.0), 2);
  ASSERT_FALSE(cache.acquire(key(3.0, 3.0)).has_value());  // never fulfilled
  const auto entries = cache.snapshot();
  EXPECT_EQ(entries.size(), 2u);
  for (const auto& [k, v] : entries) {
    EXPECT_EQ(v, static_cast<int>(k.point[0]));
  }
  cache.abandon(key(3.0, 3.0));
}

}  // namespace
}  // namespace scal::opt
