#include "util/token_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace scal::util {
namespace {

TEST(TokenMap, EmptyInitially) {
  TokenMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(7), m.end());
  EXPECT_EQ(m.count(7), 0u);
}

TEST(TokenMap, EmplaceFindErase) {
  TokenMap<std::uint64_t, std::string> m;
  auto [it, inserted] = m.emplace(5, "five");
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->second, "five");
  EXPECT_EQ(m.count(5), 1u);

  auto [again, inserted_again] = m.emplace(5, "other");
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(again->second, "five");  // existing entry untouched

  EXPECT_EQ(m.erase(5), 1u);
  EXPECT_EQ(m.erase(5), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(TokenMap, IterationIsKeyOrdered) {
  TokenMap<std::uint64_t, int> m;
  // Out-of-order inserts (slow path) still land sorted.
  for (const std::uint64_t k : {9u, 2u, 7u, 1u, 8u, 3u}) {
    m.emplace(k, static_cast<int>(k) * 10);
  }
  std::vector<std::uint64_t> keys;
  for (const auto& [k, v] : m) {
    keys.push_back(k);
    EXPECT_EQ(v, static_cast<int>(k) * 10);
  }
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{1, 2, 3, 7, 8, 9}));
}

TEST(TokenMap, MonotonicAppendFastPath) {
  TokenMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 100; ++k) m.emplace(k, 1);
  EXPECT_EQ(m.size(), 100u);
  EXPECT_NE(m.find(0), m.end());
  EXPECT_NE(m.find(99), m.end());
  EXPECT_EQ(m.find(100), m.end());
}

TEST(TokenMap, SubscriptDefaultConstructsOnce) {
  TokenMap<std::uint64_t, int> m;
  m[3] += 5;
  m[3] += 2;
  EXPECT_EQ(m[3], 7);
  EXPECT_EQ(m.size(), 1u);
}

TEST(TokenMap, EraseByIteratorReturnsNext) {
  TokenMap<std::uint64_t, int> m;
  for (const std::uint64_t k : {1u, 2u, 3u}) m.emplace(k, 0);
  auto it = m.erase(m.find(2));
  ASSERT_NE(it, m.end());
  EXPECT_EQ(it->first, 3u);
  EXPECT_EQ(m.size(), 2u);
}

TEST(TokenMap, MovableOnlyValues) {
  TokenMap<std::uint64_t, std::unique_ptr<int>> m;
  m.emplace(4, std::make_unique<int>(42));
  ASSERT_NE(m.find(4), m.end());
  EXPECT_EQ(*m.find(4)->second, 42);
}

}  // namespace
}  // namespace scal::util
