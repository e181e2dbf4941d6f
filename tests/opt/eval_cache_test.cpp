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
  const auto miss = cache.acquire(key(1.0, 2.0));
  EXPECT_TRUE(miss.owner);
  EXPECT_FALSE(miss.value.has_value());
  cache.fulfill(key(1.0, 2.0), 42);
  const auto hit = cache.acquire(key(1.0, 2.0));
  EXPECT_FALSE(hit.owner);
  ASSERT_TRUE(hit.value.has_value());
  EXPECT_EQ(*hit.value, 42);
  EXPECT_EQ(cache.size(), 1u);
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
  EXPECT_TRUE(cache.acquire(key(1.0 + 1e-15, 2.0)).owner);
  cache.abandon(key(1.0 + 1e-15, 2.0));
  EXPECT_EQ(stored(cache, key(1.0, 2.0)), 1);
}

TEST(EvalCache, FirstInsertWins) {
  EvalCache<int> cache;
  cache.fulfill(key(3.0, 4.0), 10);
  cache.fulfill(key(3.0, 4.0), 20);
  EXPECT_EQ(*cache.acquire(key(3.0, 4.0)).value, 10);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EvalCache, PriorEpochClassification) {
  EvalCache<int> cache;
  cache.begin_epoch();
  cache.fulfill(key(1.0, 1.0), 1);
  // Stored this epoch: a hit, but not a prior-epoch one.
  const auto current = cache.acquire(key(1.0, 1.0));
  EXPECT_TRUE(current.value.has_value());
  EXPECT_FALSE(current.prior_epoch);
  // Absent keys are never prior-epoch.
  EXPECT_FALSE(cache.acquire(key(2.0, 2.0)).prior_epoch);
  cache.abandon(key(2.0, 2.0));

  cache.begin_epoch();
  EXPECT_TRUE(cache.acquire(key(1.0, 1.0)).prior_epoch);
  // A second value must not reclassify the entry as current-epoch.
  cache.fulfill(key(1.0, 1.0), 99);
  const auto prior = cache.acquire(key(1.0, 1.0));
  EXPECT_TRUE(prior.prior_epoch);
  EXPECT_EQ(*prior.value, 1);
  // A genuinely new entry this epoch is not prior.
  cache.fulfill(key(2.0, 2.0), 2);
  EXPECT_FALSE(cache.acquire(key(2.0, 2.0)).prior_epoch);
}

TEST(EvalCache, ClearResetsEverything) {
  EvalCache<int> cache;
  cache.begin_epoch();
  cache.fulfill(key(1.0, 1.0), 1);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.epoch(), 0u);
  EXPECT_TRUE(cache.snapshot().empty());
}

TEST(EvalCache, ConcurrentHammerStaysConsistent) {
  // Many threads acquire an overlapping key set whose value is a pure
  // function of the key, fulfilling what they own — every hit must
  // return that function's value (first-value-wins over identical
  // values), and nothing is prior-epoch within the one tune.
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
        const auto got = cache.acquire(k);
        if (got.owner) {
          cache.fulfill(k, i * 10);
        } else {
          if (!got.value || *got.value != i * 10) {
            ++bad_reads[static_cast<size_t>(t)];
          }
          if (got.prior_epoch) ++bad_reads[static_cast<size_t>(t)];
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

TEST(EvalCacheAcquire, OwnerThenHit) {
  EvalCache<int> cache;
  auto first = cache.acquire(key(1.0, 2.0));
  EXPECT_TRUE(first.owner);
  EXPECT_FALSE(first.value.has_value());
  EXPECT_FALSE(first.waited);
  cache.fulfill(key(1.0, 2.0), 7);
  const auto second = cache.acquire(key(1.0, 2.0));
  EXPECT_FALSE(second.owner);
  ASSERT_TRUE(second.value.has_value());
  EXPECT_EQ(*second.value, 7);
  EXPECT_FALSE(second.waited);
  EXPECT_FALSE(second.from_disk);
}

TEST(EvalCacheAcquire, ClaimCarriesCurrentEpochStamp) {
  // A claim must classify exactly like a stored value: not prior-epoch
  // within the claiming tune, prior-epoch in the next.
  EvalCache<int> cache;
  cache.begin_epoch();
  const auto claimed = cache.acquire(key(1.0, 1.0));
  EXPECT_TRUE(claimed.owner);
  EXPECT_FALSE(claimed.prior_epoch);
  cache.fulfill(key(1.0, 1.0), 1);
  EXPECT_FALSE(cache.acquire(key(1.0, 1.0)).prior_epoch);
  cache.begin_epoch();
  EXPECT_TRUE(cache.acquire(key(1.0, 1.0)).prior_epoch);
}

TEST(EvalCacheAcquire, AbandonLetsWaiterReclaim) {
  EvalCache<int> cache;
  const EvalKey k = key(5.0, 5.0);
  ASSERT_TRUE(cache.acquire(k).owner);
  std::atomic<bool> reclaimed{false};
  std::thread waiter([&] {
    const auto got = cache.acquire(k);  // blocks until abandon
    if (got.owner) {
      reclaimed = true;
      cache.fulfill(k, 11);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cache.abandon(k);
  waiter.join();
  EXPECT_TRUE(reclaimed);
  EXPECT_EQ(*cache.acquire(k).value, 11);
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
        const auto got = cache.acquire(k);
        if (got.owner) {
          owners[static_cast<std::size_t>(i)]++;
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          cache.fulfill(k, i * 100);
        } else if (!got.value || *got.value != i * 100) {
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
  cache.begin_epoch();
  const auto got = cache.acquire(key(1.0, 1.0));
  ASSERT_TRUE(got.value.has_value());
  EXPECT_EQ(*got.value, 5);
  EXPECT_TRUE(got.from_disk);
  EXPECT_TRUE(got.prior_epoch);  // preloaded pre-epoch = warm for every tune
  EXPECT_EQ(cache.disk_hits(), 1u);
  // Preload is first-wins: it never clobbers a computed entry.
  cache.fulfill(key(2.0, 2.0), 7);
  cache.preload(key(2.0, 2.0), 8);
  EXPECT_EQ(*cache.acquire(key(2.0, 2.0)).value, 7);
  EXPECT_EQ(cache.preloaded(), 1u);
}

TEST(EvalCachePersist, SnapshotSkipsInFlightClaims) {
  EvalCache<int> cache;
  cache.fulfill(key(1.0, 1.0), 1);
  cache.fulfill(key(2.0, 2.0), 2);
  ASSERT_TRUE(cache.acquire(key(3.0, 3.0)).owner);  // never fulfilled
  const auto entries = cache.snapshot();
  EXPECT_EQ(entries.size(), 2u);
  for (const auto& [k, v] : entries) {
    EXPECT_EQ(v, static_cast<int>(k.point[0]));
  }
  cache.abandon(key(3.0, 3.0));
}

}  // namespace
}  // namespace scal::opt
