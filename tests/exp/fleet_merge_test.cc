// Fleet aggregation properties.
//
// 1. Pure merge algebra: shard-wise LogHistogram / counter merges are
//    order-invariant and exactly equal the unsharded aggregate, provided
//    observations are integer-valued (the fleet layer rounds once per
//    device).  Random integer observations split into random shards, merged
//    forwards, backwards and tree-wise, must match the direct aggregate
//    field for field.
//
// 2. End-to-end: the same FleetSpec run with different shard sizes and
//    thread counts renders byte-identical fleet reports — device
//    trajectories are a pure function of (cell image, device id), never the
//    shard layout.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "src/exp/fleet.h"
#include "src/obs/metrics.h"
#include "src/sim/rng.h"

namespace dcs {
namespace {

TEST(FleetMergeAlgebraTest, ShardedHistogramMergesEqualUnshardedExactly) {
  Rng rng(42);
  // Integer-valued observations spanning the histogram's full bucket range.
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    const int magnitude = static_cast<int>(rng.UniformInt(0, 40));
    values.push_back(static_cast<double>(rng.UniformInt(0, (std::int64_t{1} << magnitude))));
  }

  LogHistogram direct;
  for (const double v : values) {
    direct.Observe(v);
  }

  // Split into uneven shards.
  std::vector<LogHistogram> shards;
  std::size_t i = 0;
  while (i < values.size()) {
    const std::size_t take = static_cast<std::size_t>(rng.UniformInt(1, 137));
    LogHistogram shard;
    for (std::size_t j = i; j < std::min(i + take, values.size()); ++j) {
      shard.Observe(values[j]);
    }
    shards.push_back(shard);
    i += take;
  }

  const auto expect_equal = [&](const LogHistogram& merged, const char* label) {
    EXPECT_EQ(merged.count(), direct.count()) << label;
    EXPECT_EQ(merged.sum(), direct.sum()) << label;  // exact: integer-valued
    EXPECT_EQ(merged.min(), direct.min()) << label;
    EXPECT_EQ(merged.max(), direct.max()) << label;
    EXPECT_EQ(merged.buckets(), direct.buckets()) << label;
  };

  LogHistogram forward;
  for (const LogHistogram& s : shards) {
    forward.MergeFrom(s);
  }
  expect_equal(forward, "forward merge");

  LogHistogram backward;
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
    backward.MergeFrom(*it);
  }
  expect_equal(backward, "backward merge");

  // Tree-wise: pairwise reduce until one remains.
  std::vector<LogHistogram> level = shards;
  while (level.size() > 1) {
    std::vector<LogHistogram> next;
    for (std::size_t k = 0; k + 1 < level.size(); k += 2) {
      LogHistogram pair = level[k];
      pair.MergeFrom(level[k + 1]);
      next.push_back(pair);
    }
    if (level.size() % 2 == 1) {
      next.push_back(level.back());
    }
    level = next;
  }
  expect_equal(level[0], "tree merge");
}

TEST(FleetMergeAlgebraTest, RegistryCounterMergeIsOrderInvariant) {
  Rng rng(7);
  std::vector<MetricsRegistry> shards(17);
  for (MetricsRegistry& shard : shards) {
    shard.Counter("fleet.devices").Inc(rng.Next() % 1000);
    shard.Counter("fleet.energy_uj").Inc(rng.Next() % (std::uint64_t{1} << 40));
    shard.Histogram("fleet.device_energy_uj")
        .Observe(static_cast<double>(rng.Next() % (std::uint64_t{1} << 24)));
  }

  MetricsRegistry forward;
  for (const MetricsRegistry& s : shards) {
    forward.MergeFrom(s);
  }
  MetricsRegistry backward;
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
    backward.MergeFrom(*it);
  }

  std::ostringstream a;
  std::ostringstream b;
  forward.WriteJson(a);
  backward.WriteJson(b);
  EXPECT_EQ(a.str(), b.str());
}

FleetSpec SmallFleet() {
  FleetSpec spec;
  spec.devices = 24;
  spec.shard_devices = 8;
  spec.seed = 5;
  spec.base.app = "mpeg";
  spec.base.governor = "PAST-peg-peg-93-98";
  spec.base.itsy.battery = BatteryParams{};
  spec.warmup = SimTime::Millis(500);
  spec.duration = SimTime::Seconds(1);
  spec.jitter.battery_capacity = 0.1;
  return spec;
}

std::string RunFleetJson(FleetSpec spec, int threads) {
  SweepOptions options;
  options.threads = threads;
  FleetRunner runner(std::move(spec), options);
  return RenderFleetJson(runner.Run());
}

TEST(FleetByteIdentityTest, ReportIdenticalAcrossShardSizes) {
  const std::string whole = RunFleetJson(SmallFleet(), 1);

  FleetSpec tiny_shards = SmallFleet();
  tiny_shards.shard_devices = 3;
  EXPECT_EQ(RunFleetJson(std::move(tiny_shards), 1), whole);

  FleetSpec one_shard = SmallFleet();
  one_shard.shard_devices = 24;
  EXPECT_EQ(RunFleetJson(std::move(one_shard), 1), whole);
}

TEST(FleetByteIdentityTest, ReportIdenticalAcrossThreadCounts) {
  const std::string serial = RunFleetJson(SmallFleet(), 1);
  EXPECT_EQ(RunFleetJson(SmallFleet(), 4), serial);
}

TEST(FleetResumeTest, JournaledRerunReplaysEveryShardByteIdentically) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("dcs_fleet_resume_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string journal = (dir / "fleet.journal").string();

  SweepOptions options;
  options.threads = 2;
  options.campaign.resume = journal;

  FleetRunner first(SmallFleet(), options);
  const FleetReport first_report = first.Run();
  const std::string fresh = RenderFleetJson(first_report);
  EXPECT_EQ(first_report.replayed_shards, 0u);

  FleetRunner second(SmallFleet(), options);
  const FleetReport second_report = second.Run();
  EXPECT_EQ(RenderFleetJson(second_report), fresh);
  EXPECT_EQ(second_report.replayed_shards, second.shards().size());
  EXPECT_EQ(second_report.executed_shards, 0u);

  // A different fleet must not replay from this journal.
  FleetSpec other = SmallFleet();
  other.seed = 6;
  FleetRunner third(other, options);
  const FleetReport third_report = third.Run();
  EXPECT_EQ(third_report.replayed_shards, 0u);
  EXPECT_EQ(third_report.executed_shards, third.shards().size());

  fs::remove_all(dir);
}

TEST(FleetPlanTest, CellsPartitionDevicesAndShardsPartitionCells) {
  FleetSpec spec = SmallFleet();
  spec.devices = 1000;
  spec.shard_devices = 64;
  spec.apps = {{"mpeg", 2.0}, {"web", 1.0}, {"server", 1.0}};
  spec.jitter.arrival_rate = 0.2;
  spec.jitter.arrival_variants = 3;
  SweepOptions options;
  FleetRunner runner(spec, options);
  runner.Plan();

  // Cells: mpeg, web, and three server arrival variants.
  ASSERT_EQ(runner.cells().size(), 5u);
  std::uint64_t next = 0;
  std::uint64_t total = 0;
  for (const FleetCell& cell : runner.cells()) {
    EXPECT_EQ(cell.first_device, next);
    next += cell.count;
    total += cell.count;
  }
  EXPECT_EQ(total, spec.devices);

  // Shards tile each cell contiguously and never span cells.
  std::uint64_t shard_total = 0;
  for (const FleetShard& shard : runner.shards()) {
    const FleetCell& cell = runner.cells()[static_cast<std::size_t>(shard.cell)];
    EXPECT_GE(shard.first_device, cell.first_device);
    EXPECT_LE(shard.first_device + shard.count, cell.first_device + cell.count);
    EXPECT_LE(shard.count, spec.shard_devices);
    shard_total += shard.count;
  }
  EXPECT_EQ(shard_total, spec.devices);
}

TEST(FleetPlanTest, BadSpecsAreRejected) {
  SweepOptions options;
  {
    FleetSpec spec = SmallFleet();
    spec.devices = 0;
    EXPECT_THROW(FleetRunner(spec, options).Plan(), std::invalid_argument);
  }
  {
    FleetSpec spec = SmallFleet();
    spec.warmup = spec.duration;
    EXPECT_THROW(FleetRunner(spec, options).Plan(), std::invalid_argument);
  }
  {
    FleetSpec spec = SmallFleet();
    spec.apps = {{"mpeg", 0.0}};
    EXPECT_THROW(FleetRunner(spec, options).Plan(), std::invalid_argument);
  }
}

}  // namespace
}  // namespace dcs
