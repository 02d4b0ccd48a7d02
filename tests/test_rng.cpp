// Unit tests for the deterministic RNG.
#include <gtest/gtest.h>

#include <set>

#include "src/util/rng.hpp"

namespace bips {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(77);
  const auto first = a.next_u64();
  a.next_u64();
  a.reseed(77);
  EXPECT_EQ(a.next_u64(), first);
}

TEST(Rng, UniformRespectsBound) {
  Rng r(5);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(r.uniform(17), 17u);
}

TEST(Rng, UniformCoversRange) {
  Rng r(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2'000; ++i) seen.insert(r.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformBoundOneIsAlwaysZero) {
  Rng r(11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.uniform(1), 0u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5'000; ++i) {
    const auto v = r.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng r(17);
  for (int i = 0; i < 10'000; ++i) {
    const double v = r.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformDoubleMeanIsCentered) {
  Rng r(19);
  double sum = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) sum += r.uniform_double();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, ChanceExtremes) {
  Rng r(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceFrequencyMatchesProbability) {
  Rng r(29);
  int hits = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng r(31);
  double sum = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    const double v = r.exponential(2.5);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / kN, 2.5, 0.05);
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(37);
  double sum = 0, sq = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    const double v = r.normal(10.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.3);
}

TEST(Rng, ForkedStreamsAreIndependentButDeterministic) {
  Rng parent1(99), parent2(99);
  Rng childA = parent1.fork();
  Rng childB = parent2.fork();
  // Same parent seed -> same fork.
  for (int i = 0; i < 100; ++i) EXPECT_EQ(childA.next_u64(), childB.next_u64());
  // Fork differs from parent's continued stream.
  Rng parent3(99);
  Rng child = parent3.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child.next_u64() == parent3.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
  // A fork is seeded by exactly one parent draw, so keeping that draw is
  // enough to build the fork later (ShardedBipsSimulation's replicas
  // built on first entry rely on it).
  Rng parent4(99);
  Rng later(parent4.next_u64());
  Rng parent5(99);
  Rng now = parent5.fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(later.next_u64(), now.next_u64());
  EXPECT_EQ(parent4.next_u64(), parent5.next_u64());
}

}  // namespace
}  // namespace bips
