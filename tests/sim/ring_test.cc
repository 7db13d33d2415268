#include "src/sim/ring.h"

#include <deque>

#include <gtest/gtest.h>

#include "src/sim/rng.h"

namespace dcs {
namespace {

// Differential against std::deque: random pushes, pops and clears, with
// the head wrapping round the storage and growth landing at every phase.
TEST(RingTest, RandomOpsMatchDeque) {
  Rng rng(0x2196);
  Ring<int> ring;
  std::deque<int> ref;
  for (int op = 0; op < 20'000; ++op) {
    const double u = rng.NextDouble();
    if (u < 0.55) {
      const int v = static_cast<int>(rng.UniformInt(0, 1'000'000));
      ring.push_back(v);
      ref.push_back(v);
    } else if (u < 0.995) {
      if (!ref.empty()) {
        ASSERT_EQ(ring.front(), ref.front());
        ring.pop_front();
        ref.pop_front();
      }
    } else {
      ring.clear();
      ref.clear();
    }
    ASSERT_EQ(ring.size(), ref.size()) << "op " << op;
    ASSERT_EQ(ring.empty(), ref.empty());
    if (!ref.empty()) {
      ASSERT_EQ(ring.back(), ref.back());
    }
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ring[i], ref[i]) << "op " << op << " index " << i;
    }
  }
}

// clear() and pop_front() keep the storage: refilling to the same depth
// never grows it, wherever the head happens to stand.
TEST(RingTest, ClearAndDrainKeepCapacity) {
  Ring<double> ring;
  for (int i = 0; i < 20; ++i) {
    ring.push_back(i);
  }
  const std::size_t capacity = ring.capacity();
  ASSERT_GE(capacity, 20u);
  for (int round = 0; round < 50; ++round) {
    while (!ring.empty()) {
      ring.pop_front();
    }
    for (int i = 0; i < 20; ++i) {
      ring.push_back(i);
    }
    ring.pop_front();
    ring.push_back(99);
    EXPECT_EQ(ring.capacity(), capacity) << "round " << round;
    ring.clear();
    for (int i = 0; i < 20; ++i) {
      ring.push_back(i);
    }
    EXPECT_EQ(ring.capacity(), capacity) << "round " << round;
    EXPECT_EQ(ring.front(), 0.0);
    EXPECT_EQ(ring.back(), 19.0);
  }
}

TEST(RingTest, CopiesAreIndependent) {
  Ring<int> a;
  for (int i = 0; i < 10; ++i) {
    a.push_back(i);
  }
  a.pop_front();
  Ring<int> b = a;
  a.pop_front();
  a.push_back(42);
  ASSERT_EQ(b.size(), 9u);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b[i], static_cast<int>(i) + 1);
  }
  EXPECT_EQ(a.front(), 2);
  EXPECT_EQ(a.back(), 42);
}

}  // namespace
}  // namespace dcs
