#include "src/kernel/sched_log.h"

#include <gtest/gtest.h>

namespace dcs {
namespace {

TEST(SchedLogTest, RecordsEntries) {
  SchedLog log(16);
  log.Record(SimTime::Millis(10), 1, 5);
  log.Record(SimTime::Millis(20), 0, 5);
  const auto entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].time_us, 10000);
  EXPECT_EQ(entries[0].pid, 1);
  EXPECT_EQ(entries[0].clock_step, 5);
  EXPECT_EQ(entries[1].pid, 0);
}

TEST(SchedLogTest, MicrosecondResolution) {
  SchedLog log(4);
  log.Record(SimTime::Nanos(1234567), 1, 0);
  EXPECT_EQ(log.Snapshot()[0].time_us, 1234);
}

TEST(SchedLogTest, RingBufferOverwritesOldest) {
  // "Due to kernel memory limitations, we could only capture a subset of the
  // process behavior."
  SchedLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.Record(SimTime::Millis(i), i, 0);
  }
  EXPECT_TRUE(log.Wrapped());
  const auto entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].pid, 6);  // oldest surviving
  EXPECT_EQ(entries[3].pid, 9);
  EXPECT_EQ(log.total_recorded(), 10u);
}

TEST(SchedLogTest, ClearResets) {
  SchedLog log(4);
  log.Record(SimTime::Millis(1), 1, 0);
  log.Clear();
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_EQ(log.total_recorded(), 0u);
}

TEST(SchedLogTest, ZeroCapacityIsSafe) {
  SchedLog log(0);
  log.Record(SimTime::Millis(1), 1, 0);
  EXPECT_TRUE(log.Snapshot().empty());
}

TEST(SchedLogTest, SnapshotBeforeWrapPreservesOrder) {
  SchedLog log(8);
  for (int i = 0; i < 5; ++i) {
    log.Record(SimTime::Millis(i), i, 0);
  }
  const auto entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(entries[static_cast<std::size_t>(i)].pid, i);
  }
}

TEST(SchedLogTest, ExactCapacityIsFullButNotWrapped) {
  SchedLog log(4);
  for (int i = 0; i < 4; ++i) {
    log.Record(SimTime::Millis(i), i, 0);
  }
  // total_recorded == capacity means nothing has been lost yet.
  EXPECT_EQ(log.total_recorded(), 4u);
  EXPECT_FALSE(log.Wrapped());
  const auto entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(entries[static_cast<std::size_t>(i)].pid, i);
  }
  // One more record crosses the line: now wrapped, oldest entry gone.
  log.Record(SimTime::Millis(4), 4, 0);
  EXPECT_TRUE(log.Wrapped());
  EXPECT_EQ(log.total_recorded(), 5u);
  EXPECT_EQ(log.Snapshot().front().pid, 1);
}

TEST(SchedLogTest, SnapshotIsChronologicalAtEveryWrapPhase) {
  // The ring's write cursor can be anywhere when Snapshot is taken; the
  // result must be oldest-first regardless of the cursor position.
  for (int records = 1; records <= 13; ++records) {
    SchedLog log(5);
    for (int i = 0; i < records; ++i) {
      log.Record(SimTime::Millis(i), i, 0);
    }
    const auto entries = log.Snapshot();
    const int expected = records < 5 ? records : 5;
    ASSERT_EQ(entries.size(), static_cast<std::size_t>(expected)) << records;
    for (std::size_t k = 0; k + 1 < entries.size(); ++k) {
      EXPECT_LT(entries[k].time_us, entries[k + 1].time_us) << records;
    }
    EXPECT_EQ(entries.back().pid, records - 1) << records;
    EXPECT_EQ(entries.front().pid, records - expected) << records;
  }
}

TEST(SchedLogTest, ClearThenRecordStartsAFreshLog) {
  SchedLog log(4);
  for (int i = 0; i < 9; ++i) {  // wrap it first
    log.Record(SimTime::Millis(i), i, 0);
  }
  ASSERT_TRUE(log.Wrapped());
  log.Clear();
  EXPECT_FALSE(log.Wrapped());
  EXPECT_EQ(log.total_recorded(), 0u);
  EXPECT_EQ(log.capacity(), 4u);
  log.Record(SimTime::Millis(100), 42, 3);
  log.Record(SimTime::Millis(101), 43, 3);
  const auto entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].pid, 42);  // no stale pre-Clear entries resurface
  EXPECT_EQ(entries[1].pid, 43);
  EXPECT_FALSE(log.Wrapped());
}

}  // namespace
}  // namespace dcs
