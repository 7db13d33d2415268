// Hostile snapshot images: a count field no image could back, and every
// truncation of a real device image.  Each load must fail ok() cleanly: no
// allocation sized from the count, no loop driven by it, no crash.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/daq/daq.h"
#include "src/exp/device_sim.h"
#include "src/exp/experiment.h"
#include "src/hw/power_tape.h"
#include "src/kernel/run_queue.h"
#include "src/kernel/sched_log.h"
#include "src/sim/snapshot.h"
#include "src/sim/trace_sink.h"

namespace dcs {
namespace {

constexpr std::uint64_t kHugeCount = std::uint64_t{1} << 60;

// An image that is a bare 2^60 count followed by a little padding: a load
// that trusted the count would resize to 2^60 elements or loop 2^60 times.
SnapshotWriter HugeCountImage() {
  SnapshotWriter w;
  w.U64(kHugeCount);
  for (int i = 0; i < 8; ++i) {
    w.U64(0);
  }
  return w;
}

TEST(SnapshotHostileTest, CountBeyondRemainingBytesFails) {
  SnapshotWriter w;
  w.U64(3);
  w.U64(0);
  w.U64(0);
  w.U64(0);
  SnapshotReader fits(w);
  EXPECT_EQ(fits.Count(8), 3u);
  EXPECT_TRUE(fits.ok());

  SnapshotReader too_wide(w);
  EXPECT_EQ(too_wide.Count(9), 0u);
  EXPECT_FALSE(too_wide.ok());

  const SnapshotWriter huge = HugeCountImage();
  SnapshotReader r(huge);
  EXPECT_EQ(r.Count(1), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(SnapshotHostileTest, ComponentsRejectAHugeCount) {
  const SnapshotWriter image = HugeCountImage();
  {
    PowerTape tape;
    SnapshotReader r(image);
    tape.LoadState(&r);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(tape.empty());
  }
  {
    SchedLog log(16);
    SnapshotReader r(image);
    log.LoadState(&r);
    EXPECT_FALSE(r.ok());
  }
  {
    TraceSeries series("s");
    SnapshotReader r(image);
    series.LoadState(&r);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(series.points().empty());
  }
  {
    RunQueue queue;
    SnapshotReader r(image);
    queue.LoadState(&r);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(queue.pids().empty());
  }
  {
    // GpioTrigger's count follows its open-window flag and time.
    SnapshotWriter w;
    w.Bool(false);
    w.Time(SimTime::Zero());
    w.U64(kHugeCount);
    w.Time(SimTime::Zero());
    w.Time(SimTime::Zero());
    GpioTrigger trigger(5);
    SnapshotReader r(w);
    trigger.LoadState(&r);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(trigger.windows().empty());
  }
}

// The sched log's ring indices come from the image too: Record() writes
// buffer[next] and Snapshot() reads min(total, capacity) entries.  Images
// that break those bounds must fail and leave a log that is safe to use.
TEST(SnapshotHostileTest, SchedLogRejectsRingIndicesOutOfBounds) {
  struct Case {
    const char* what;
    std::uint64_t entries, next, total;
  };
  const Case cases[] = {
      {"more entries than the capacity", 32, 0, 32},
      {"next past the capacity", 2, 1000, 2},
      {"total claims more entries than stored", 2, 2, 10},
  };
  for (const Case& c : cases) {
    SnapshotWriter w;
    w.U64(c.entries);
    for (std::uint64_t i = 0; i < c.entries; ++i) {
      const SchedLogEntry entry{static_cast<std::int64_t>(i), 1, 0};
      w.Bytes(&entry, sizeof(entry));
    }
    w.U64(c.next);
    w.U64(c.total);
    w.Bool(true);
    SchedLog log(16);
    SnapshotReader r(w);
    log.LoadState(&r);
    EXPECT_FALSE(r.ok()) << c.what;
    for (int i = 0; i < 40; ++i) {
      log.Record(SimTime::Micros(i), 1, 0);
    }
    EXPECT_EQ(log.Snapshot().size(), 16u) << c.what;
  }
}

// A faulted server device carries every listed count: power tape, sched log,
// trace series, run queue, server request queue, invariant-checker history
// and the DAQ trigger's windows.
ExperimentConfig ServerConfig() {
  ExperimentConfig config;
  config.app = "server";
  config.governor = "pid-vs";
  config.seed = 5;
  config.duration = SimTime::Seconds(1);
  config.faults = "storm=0.3";
  config.server.emplace();
  config.server->rate_rps = 300.0;
  config.server->duration = SimTime::Seconds(1);
  return config;
}

TEST(SnapshotHostileTest, EveryTruncationOfADeviceImageFails) {
  const ExperimentConfig config = ServerConfig();
  DeviceSim source(config);
  source.Start();
  source.RunUntil(SimTime::Millis(150));
  SnapshotWriter image;
  source.SaveState(&image);
  ASSERT_GT(image.size(), 0u);

  // The full image restores; every proper prefix must not.
  DeviceSim target(config);
  {
    SnapshotReader r(image);
    target.LoadState(&r);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.AtEnd());
  }
  for (std::size_t len = 0; len < image.size(); ++len) {
    SnapshotReader r(image.data(), len);
    target.LoadState(&r);
    ASSERT_FALSE(r.ok()) << "prefix of " << len << " of " << image.size() << " bytes loaded";
  }
  // The stack still takes a good image after all the failed loads.
  SnapshotReader r(image);
  target.LoadState(&r);
  EXPECT_TRUE(r.ok());
}

}  // namespace
}  // namespace dcs
