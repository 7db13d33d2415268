#include "src/kernel/run_queue.h"

#include <gtest/gtest.h>

namespace dcs {
namespace {

TEST(RunQueueTest, StartsEmpty) {
  RunQueue q;
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
}

TEST(RunQueueTest, FifoOrder) {
  RunQueue q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.Pop(), 3);
  EXPECT_TRUE(q.Empty());
}

TEST(RunQueueTest, RoundRobinRotation) {
  RunQueue q;
  q.Push(1);
  q.Push(2);
  const Pid first = q.Pop();
  q.Push(first);  // preempted task goes to the back
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.Pop(), 1);
}

TEST(RunQueueTest, Contains) {
  RunQueue q;
  q.Push(5);
  EXPECT_TRUE(q.Contains(5));
  EXPECT_FALSE(q.Contains(6));
}

}  // namespace
}  // namespace dcs
