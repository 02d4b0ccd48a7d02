// Unit tests for the open-addressing FlatHashMap: lazy table allocation,
// insert-or-find, and growth.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "src/util/flat_map.hpp"

namespace bips {
namespace {

TEST(FlatHashMap, EmptyMapFindsAndVisitsNothing) {
  FlatHashMap<int> m;
  const FlatHashMap<int>& cm = m;
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(0), nullptr);
  EXPECT_EQ(m.find(42), nullptr);
  EXPECT_EQ(cm.find(42), nullptr);
  int visits = 0;
  m.for_each([&visits](std::uint64_t, const int&) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(FlatHashMap, FirstSubscriptOnAnEmptyMapInserts) {
  FlatHashMap<std::vector<int>> m;
  std::vector<int>& v = m[7];
  EXPECT_TRUE(v.empty());  // default-constructed
  v.push_back(3);
  EXPECT_EQ(m.size(), 1u);
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(m.find(7), &v);
  EXPECT_EQ(*m.find(7), std::vector<int>{3});
  EXPECT_EQ(m.find(8), nullptr);
}

TEST(FlatHashMap, RepeatedSubscriptReturnsTheSameCell) {
  FlatHashMap<int> m;
  int& first = m[0];
  first = 5;
  int& again = m[0];
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(again, 5);
  again += 1;
  EXPECT_EQ(m[0], 6);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatHashMap, GrowthPastTheLoadFactorKeepsEveryEntry) {
  // Keys with structure in the low and the high bits (like the radio's
  // grid-cell and namespace keys), key 0 included; 1000 entries force
  // several doublings past the 3/4 load factor.
  FlatHashMap<std::uint64_t> m;
  std::map<std::uint64_t, std::uint64_t> want;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t key = (i % 40) << 32 | (i / 40);
    m[key] = i * 3 + 1;
    want[key] = i * 3 + 1;
  }
  ASSERT_EQ(m.size(), want.size());
  for (const auto& [key, value] : want) {
    const std::uint64_t* got = m.find(key);
    ASSERT_NE(got, nullptr) << key;
    EXPECT_EQ(*got, value) << key;
  }
  std::map<std::uint64_t, std::uint64_t> visited;
  m.for_each([&visited](std::uint64_t key, const std::uint64_t& value) {
    EXPECT_TRUE(visited.emplace(key, value).second) << key;
  });
  EXPECT_EQ(visited, want);
  EXPECT_EQ(m.find(std::uint64_t{1} << 40), nullptr);
}

}  // namespace
}  // namespace bips
