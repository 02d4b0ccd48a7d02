// Unit tests for Fifo: order, no heap while empty, bounded growth.
#include <gtest/gtest.h>

#include <vector>

#include "src/util/fifo.hpp"

namespace bips {
namespace {

TEST(Fifo, EmptyQueueHoldsNoHeap) {
  Fifo<std::vector<int>> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 0u);
}

TEST(Fifo, PopsInPushOrderAndFreesTheHeapOnceDrained) {
  Fifo<std::vector<int>> q;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 5; ++i) q.push_back(std::vector<int>{round, i});
    EXPECT_GT(q.capacity(), 0u);
    for (int i = 0; i < 5; ++i) {
      ASSERT_FALSE(q.empty());
      EXPECT_EQ(q.front(), (std::vector<int>{round, i}));
      q.pop_front();
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.capacity(), 0u);
  }
}

TEST(Fifo, ClearFreesTheHeap) {
  Fifo<int> q;
  q.push_back(1);
  q.push_back(2);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 0u);
  q.push_back(3);
  EXPECT_EQ(q.front(), 3);
}

TEST(Fifo, AQueueThatNeverDrainsStaysBounded) {
  // One push per pop over a standing backlog of 8: the queue never
  // empties, yet the consumed prefix is dropped, so capacity stays within a
  // small multiple of the live length, and order holds throughout.
  Fifo<int> q;
  int next_in = 0, next_out = 0;
  for (int i = 0; i < 8; ++i) q.push_back(next_in++);
  for (int step = 0; step < 10'000; ++step) {
    q.push_back(next_in++);
    ASSERT_EQ(q.front(), next_out++);
    q.pop_front();
    ASSERT_FALSE(q.empty());
    ASSERT_LE(q.capacity(), 32u);
  }
}

}  // namespace
}  // namespace bips
