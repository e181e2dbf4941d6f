#include "util/fifo_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace scal::util {
namespace {

using Cache = FifoCache<int, std::string>;

std::size_t length(const std::string& s) { return s.size(); }

std::shared_ptr<const std::string> text(std::size_t n, char c = 'x') {
  return std::make_shared<const std::string>(n, c);
}

TEST(FifoCache, LookupCountsHitsAndMisses) {
  Cache cache(&length);
  EXPECT_EQ(cache.lookup(1), nullptr);
  const auto value = text(3);
  EXPECT_EQ(cache.insert(1, value), value);
  EXPECT_EQ(cache.lookup(1), value);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.inserts(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), 3u);
}

TEST(FifoCache, FirstInsertWinsUnlessReplaced) {
  Cache cache(&length);
  const auto first = text(2, 'a');
  cache.insert(1, first);
  EXPECT_EQ(cache.insert(1, text(2, 'b')), first);

  const auto longer = text(5, 'c');
  const auto is_shorter = [&](const std::string& existing) {
    return longer->size() > existing.size();
  };
  EXPECT_EQ(cache.insert(1, longer, is_shorter), longer);
  EXPECT_EQ(cache.lookup(1), longer);
  EXPECT_EQ(cache.replacements(), 1u);
  EXPECT_EQ(cache.inserts(), 1u);
  EXPECT_EQ(cache.bytes(), 5u);
}

TEST(FifoCache, BudgetEvictsOldestAndReplacementKeepsItsSlot) {
  Cache cache(&length);
  cache.set_max_bytes(6);
  cache.insert(1, text(2));
  cache.insert(2, text(2));
  // Growing entry 1 in place keeps it oldest, so it goes first.
  cache.insert(1, text(3), [](const std::string&) { return true; });
  EXPECT_EQ(cache.size(), 2u);
  cache.insert(3, text(2));
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.bytes(), 4u);
}

TEST(FifoCache, OversizedValueIsReturnedUnstoredAndEvictsNothing) {
  Cache cache(&length);
  cache.set_max_bytes(4);
  cache.insert(1, text(2));
  const auto huge = text(5);
  EXPECT_EQ(cache.insert(2, huge), huge);
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.inserts(), 1u);
  EXPECT_EQ(cache.bytes(), 2u);
}

TEST(FifoCache, ClearKeepsTheBudget) {
  Cache cache(&length);
  cache.set_max_bytes(8);
  cache.insert(1, text(2));
  cache.lookup(1);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.inserts(), 0u);
  EXPECT_EQ(cache.max_bytes(), 8u);
}

}  // namespace
}  // namespace scal::util
