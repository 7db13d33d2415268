// What a fleet device records.  FleetRunner declares that it reads only
// fleet totals, so its devices keep no power-tape history, sched log, trace
// series or metrics registry (DeviceSim::Reads).  These tests hold that
// declaration to its promises:
//
//   * the fleet report is unchanged: a small fleet per fleet_clone governor
//     renders the RenderFleetJson bytes pinned below;
//   * the warmup image shrinks, still round-trips, and Finish() refuses to
//     build an ExperimentResult from a device that recorded none;
//   * a faulted fleet keeps the tape history its invariant checker walks.

#include <gtest/gtest.h>

#include <cstdint>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/exp/device_sim.h"
#include "src/exp/fleet.h"
#include "src/obs/metrics.h"
#include "src/sim/snapshot.h"

namespace dcs {
namespace {

FleetSpec MixedFleet(const std::string& governor) {
  FleetSpec spec;
  spec.devices = 12;
  spec.shard_devices = 4;
  spec.seed = 11;
  spec.apps = {{"mpeg", 2.0}, {"web", 1.0}, {"server", 1.0}};
  spec.base.governor = governor;
  spec.base.itsy.battery = BatteryParams{};
  spec.warmup = SimTime::Millis(500);
  spec.duration = SimTime::Seconds(1);
  spec.jitter.battery_capacity = 0.1;
  return spec;
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// FNV-1a 64 of each fleet's rendered report, recorded before fleet devices
// stopped recording what the fleet never reads.
TEST(FleetRecordingTest, ReportBytesArePinned) {
  const struct {
    const char* governor;
    const char* fnv;
  } cases[] = {
      {"fixed-132.7", "66a4fd9eb30afcd3"},
      {"pid-vs", "94f413ab6e87b27c"},
      {"adaptive-vs", "2c671c849fa29a22"},
      {"deadline-vs", "77e6bf923f3cdfa4"},
  };
  for (const auto& c : cases) {
    FleetRunner runner(MixedFleet(c.governor), SweepOptions{});
    const std::string json = RenderFleetJson(runner.Run());
    EXPECT_EQ(Hex(SnapshotNameHash(json)), c.fnv) << c.governor << ": " << json;
  }
}

// A fleet_clone cell: its app and governor, battery engaged, a 2 s warmup
// and a 3 s horizon.
ExperimentConfig CellConfig(const std::string& app, const std::string& faults = "") {
  ExperimentConfig config;
  config.app = app;
  config.governor = "pid-vs";
  config.seed = 3;
  config.duration = SimTime::Seconds(3);
  config.itsy.battery = BatteryParams{};
  config.faults = faults;
  if (app == "server") {
    config.server.emplace();
    config.server->duration = SimTime::Seconds(3);
  }
  return config;
}

constexpr SimTime kWarmup = SimTime::Seconds(2);

SnapshotWriter WarmImage(DeviceSim* dev) {
  dev->Start();
  dev->RunUntil(kWarmup);
  SnapshotWriter image;
  dev->SaveState(&image);
  return image;
}

// What FleetRunner reads off a device after its tail.
struct Totals {
  double energy_j = 0.0;
  std::int64_t deadline_events = 0;
  std::int64_t deadline_misses = 0;
  std::uint64_t quanta = 0;
  int clock_changes = 0;

  bool operator==(const Totals&) const = default;
};

Totals ReadTotals(DeviceSim& dev) {
  dev.itsy().SyncBattery();
  return Totals{dev.itsy().tape().EnergyJoules(SimTime::Zero(), dev.sim().Now()),
                dev.deadlines().TotalEvents(), dev.deadlines().TotalMissed(),
                dev.kernel().quanta_elapsed(), dev.itsy().clock_changes()};
}

class FleetImageTest : public ::testing::TestWithParam<const char*> {};

// A fleet-totals device's warmup image holds only what drives the
// simulation: at most a quarter of the full image.  It restores onto a
// fresh fleet-totals stack, and both run the tail to the same totals, bit
// for bit, as a full-result device that never stopped.
TEST_P(FleetImageTest, LeanImageIsSmallRoundTripsAndHasNoResult) {
  const ExperimentConfig config = CellConfig(GetParam());

  DeviceSim full(config);
  const SnapshotWriter full_image = WarmImage(&full);
  full.RunUntil(full.duration());
  const Totals expected = ReadTotals(full);

  DeviceSim lean(config, DeviceSim::Reads::kFleetTotals);
  const SnapshotWriter lean_image = WarmImage(&lean);
  RecordProperty("full_image_bytes", std::to_string(full_image.size()));
  RecordProperty("lean_image_bytes", std::to_string(lean_image.size()));
  EXPECT_LE(lean_image.size() * 4, full_image.size())
      << "lean " << lean_image.size() << " B, full " << full_image.size() << " B";
  EXPECT_FALSE(lean.itsy().tape().keeps_history());
  EXPECT_LE(lean.itsy().tape().segments().size(), 2u);
  EXPECT_EQ(lean.kernel().sched_log().total_recorded(), 0u);
  EXPECT_TRUE(lean.kernel().sink().Names().empty());

  lean.RunUntil(lean.duration());
  EXPECT_EQ(ReadTotals(lean), expected) << "uninterrupted lean device";
  EXPECT_EQ(lean.itsy().tape().size(), full.itsy().tape().size());

  // Rewind the dirty stack to the image, and clone it onto a fresh one.
  SnapshotReader rewind(lean_image);
  lean.LoadState(&rewind);
  ASSERT_TRUE(rewind.ok());
  ASSERT_TRUE(rewind.AtEnd());
  lean.RunUntil(lean.duration());
  EXPECT_EQ(ReadTotals(lean), expected) << "rewound lean device";

  DeviceSim clone(config, DeviceSim::Reads::kFleetTotals);
  SnapshotReader fresh(lean_image);
  clone.LoadState(&fresh);
  ASSERT_TRUE(fresh.ok());
  clone.RunUntil(clone.duration());
  EXPECT_EQ(ReadTotals(clone), expected) << "cloned lean device";

  EXPECT_THROW(clone.Finish(), std::logic_error);
  // The tape answers only from its start: an earlier window has no record.
  EXPECT_THROW(clone.itsy().tape().EnergyJoules(SimTime::Seconds(1), kWarmup),
               std::logic_error);
}

// An image of one declaration does not load onto a stack of the other.
TEST_P(FleetImageTest, ImagesDoNotCrossDeclarations) {
  const ExperimentConfig config = CellConfig(GetParam());
  DeviceSim full(config);
  DeviceSim lean(config, DeviceSim::Reads::kFleetTotals);
  const SnapshotWriter full_image = WarmImage(&full);
  const SnapshotWriter lean_image = WarmImage(&lean);
  SnapshotReader full_onto_lean(full_image);
  lean.LoadState(&full_onto_lean);
  EXPECT_FALSE(full_onto_lean.ok());
  SnapshotReader lean_onto_full(lean_image);
  full.LoadState(&lean_onto_full);
  EXPECT_FALSE(lean_onto_full.ok());
}

INSTANTIATE_TEST_SUITE_P(FleetApps, FleetImageTest, ::testing::Values("mpeg", "web", "server"));

// The invariant checker of a fault plan walks every tape segment, so a
// faulted fleet device keeps the history whatever its caller reads, and
// its checks pass across warmup, restore and tail.
TEST(FleetRecordingTest, FaultedFleetDeviceKeepsTapeHistory) {
  const ExperimentConfig config = CellConfig("mpeg", "storm=0.3");
  DeviceSim dev(config, DeviceSim::Reads::kFleetTotals);
  const SnapshotWriter image = WarmImage(&dev);
  for (std::uint64_t device = 0; device < 3; ++device) {
    SnapshotReader reader(image);
    dev.LoadState(&reader);
    ASSERT_TRUE(reader.ok());
    dev.kernel().ForkRngs(device);
    dev.RunUntil(dev.duration());
    EXPECT_TRUE(dev.itsy().tape().keeps_history());
    EXPECT_EQ(dev.itsy().tape().segments().size(), dev.itsy().tape().size());
    ASSERT_NE(dev.checker(), nullptr);
    EXPECT_GT(dev.checker()->checks(), 0u);
    EXPECT_EQ(dev.checker()->violation_count(), 0u)
        << (dev.checker()->violations().empty() ? "" : dev.checker()->violations().front());
  }

  FleetSpec spec = MixedFleet("pid-vs");
  spec.base.faults = "storm=0.3";
  FleetRunner runner(spec, SweepOptions{});
  const FleetReport report = runner.Run();
  EXPECT_EQ(report.devices, spec.devices);
  EXPECT_EQ(report.failed_shards, 0u);
}

// A fleet whose batteries die mid-run: a Peukert capacity a few thousandths
// of the default.  Devices die at different times, so the death count, its
// histogram and the per-device artifact's died_at_s column all carry data.
FleetSpec DyingFleet() {
  FleetSpec spec = MixedFleet("fixed-132.7");
  spec.base.itsy.battery->peukert_capacity = 1.5e-4;
  spec.duration = SimTime::Seconds(6);
  return spec;
}

// Parses the died_at_s column of every per-device artifact under `prefix`
// (one file per shard); "-" marks a device that survived.
std::vector<std::uint64_t> DeathTimesFromRows(const FleetRunner& runner,
                                              const std::string& prefix,
                                              std::uint64_t* rows) {
  std::vector<std::uint64_t> deaths;
  *rows = 0;
  for (const FleetShard& shard : runner.shards()) {
    std::ifstream in(prefix + ".shard" + std::to_string(shard.first_device) + ".csv");
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "device_id,app,energy_uj,deadline_events,deadline_misses,died_at_s");
    while (std::getline(in, line)) {
      ++*rows;
      const std::string died_at = line.substr(line.rfind(',') + 1);
      if (died_at != "-") {
        deaths.push_back(std::stoull(died_at));
      }
    }
  }
  return deaths;
}

// FNV-1a 64 of the dying fleet's rendered report, recorded before the
// fleet's death aggregation was first exercised by a test.
TEST(FleetRecordingTest, DyingFleetReportIsPinnedAndMatchesItsRows) {
  FleetSpec spec = DyingFleet();
  spec.per_device_out =
      ::testing::TempDir() + "dying_fleet." + std::to_string(::getpid());
  FleetRunner runner(spec, SweepOptions{});
  const FleetReport report = runner.Run();
  const std::string json = RenderFleetJson(report);
  EXPECT_EQ(Hex(SnapshotNameHash(json)), "b18af48b79e434d0") << json;
  ASSERT_GT(report.battery_deaths, 0u);
  ASSERT_LT(report.battery_deaths, spec.devices);

  std::uint64_t rows = 0;
  const std::vector<std::uint64_t> deaths = DeathTimesFromRows(runner, spec.per_device_out, &rows);
  EXPECT_EQ(rows, spec.devices);
  EXPECT_EQ(deaths.size(), report.battery_deaths);
  // Death times are whole seconds inside the 6 s horizon.
  for (const std::uint64_t s : deaths) {
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, 6u);
  }
  // The rows rebuild the merged death histogram exactly.
  LogHistogram from_rows;
  for (const std::uint64_t s : deaths) {
    from_rows.Observe(static_cast<double>(s));
  }
  const LogHistogram* merged = report.merged.FindHistogram("fleet.battery_death_s");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count(), from_rows.count());
  EXPECT_EQ(merged->buckets(), from_rows.buckets());
  EXPECT_EQ(merged->sum(), from_rows.sum());
  EXPECT_EQ(merged->min(), from_rows.min());
  EXPECT_EQ(merged->max(), from_rows.max());
  for (const FleetShard& shard : runner.shards()) {
    std::remove((spec.per_device_out + ".shard" + std::to_string(shard.first_device) + ".csv")
                    .c_str());
  }
}

}  // namespace
}  // namespace dcs
