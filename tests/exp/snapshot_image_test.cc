// Image-layout pins.  Round-trip tests show that what a component saves it
// can load again; they cannot show that the image still holds the same
// fields in the same order.  These tests hash whole images and a whole
// journal file, so any change to the snapshot or journal layout moves a pin
// here and has to be re-pinned on purpose.
//
// The journal pin and the layout of every device image were recorded
// before the codec became one SnapshotIo description per component, and
// the swap kept them all.  The device images were re-pinned once since:
// a sleeping task's wake time left the task's fields and now follows its
// armed flag, read off the event queue like every other pending event.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/exp/device_sim.h"
#include "src/exp/journal.h"
#include "src/sim/snapshot.h"

namespace dcs {
namespace {

constexpr SimTime kWarmup = SimTime::Seconds(2);

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string Fnv(const char* data, std::size_t size) {
  return Hex(SnapshotNameHash(std::string(data, size)));
}

// A fleet_clone-style cell: battery engaged, seed 3, a 3 s horizon.
ExperimentConfig Cell(const std::string& app, const std::string& governor) {
  ExperimentConfig config;
  config.app = app;
  config.governor = governor;
  config.seed = 3;
  config.duration = SimTime::Seconds(3);
  config.itsy.battery = BatteryParams{};
  if (app == "server") {
    config.server.emplace();
    config.server->duration = SimTime::Seconds(3);
  }
  return config;
}

// FNV-1a 64 of the device's image after a 2 s warmup.
std::string WarmupImageHash(const ExperimentConfig& config, DeviceSim::Reads reads) {
  DeviceSim dev(config, reads);
  dev.Start();
  dev.RunUntil(kWarmup);
  SnapshotWriter image;
  dev.SaveState(&image);
  return Fnv(image.data(), image.size());
}

TEST(SnapshotImageTest, WarmupImagesArePinned) {
  const struct {
    const char* governor;
    const char* app;
    const char* full;
    const char* totals;
  } cases[] = {
      {"fixed-132.7", "mpeg", "1bf73f6a1663c0f7", "616a05744b0833c9"},
      {"fixed-132.7", "web", "f73fe5e94e10af87", "a602635beaaf98c1"},
      {"fixed-132.7", "server", "8224f0de914818a1", "95a663be2d4f7b32"},
      {"pid-vs", "mpeg", "73b84d9635db54c2", "63d35d14111c50bc"},
      {"pid-vs", "web", "9433fefba83a33a9", "8db3a734c9b4c6f0"},
      {"pid-vs", "server", "5dfd50750738c05f", "7a944880a4136ac6"},
      {"adaptive-vs", "mpeg", "1e51c5892faf155b", "2583332e457719cf"},
      {"adaptive-vs", "web", "80ebd4ed4dacc472", "0b5ddc3c01f0bf9f"},
      {"adaptive-vs", "server", "1de1dd244a09fba1", "27f48072e3280442"},
      {"deadline-vs", "mpeg", "72f20ca1bf6676bb", "1b52abdc968531cd"},
      {"deadline-vs", "web", "7c5bdebbd7106da6", "720e6ed00cec7673"},
      {"deadline-vs", "server", "828553e71bd56d57", "c8f731d21d777eb5"},
  };
  for (const auto& c : cases) {
    const ExperimentConfig config = Cell(c.app, c.governor);
    EXPECT_EQ(WarmupImageHash(config, DeviceSim::Reads::kFullResult), c.full)
        << c.governor << " " << c.app << " full result";
    EXPECT_EQ(WarmupImageHash(config, DeviceSim::Reads::kFleetTotals), c.totals)
        << c.governor << " " << c.app << " fleet totals";
  }
}

// CYCLE's history holds the last two cycles, not every quantum since boot,
// so a fleet device's image stops growing once the warmup passes them.
TEST(SnapshotImageTest, CycleImageSizeDoesNotGrowWithTime) {
  ExperimentConfig config = Cell("mpeg", "CYCLE10-peg-peg-93-98");
  // The clip outlasts both images, so the same tasks are asleep at each.
  config.mpeg.emplace();
  config.mpeg->duration = SimTime::Seconds(120);
  config.duration = SimTime::Seconds(121);
  DeviceSim dev(config, DeviceSim::Reads::kFleetTotals);
  dev.Start();
  dev.RunUntil(kWarmup);
  SnapshotWriter early;
  dev.SaveState(&early);
  dev.RunUntil(SimTime::Seconds(60));
  SnapshotWriter late;
  dev.SaveState(&late);
  EXPECT_EQ(late.size(), early.size());
}

// A faulted image carries the injector, the invariant checker and its
// armed sweep; a capture_obs image keeps the sched log.
TEST(SnapshotImageTest, FaultedAndObservedImagesArePinned) {
  ExperimentConfig storm = Cell("mpeg", "pid-vs");
  storm.faults = "storm=0.3";
  EXPECT_EQ(WarmupImageHash(storm, DeviceSim::Reads::kFullResult), "3c1dffff965b6fad");

  ExperimentConfig observed = Cell("mpeg", "pid-vs");
  observed.capture_obs = true;
  EXPECT_EQ(WarmupImageHash(observed, DeviceSim::Reads::kFullResult), "1a726c5fd8fd40c8");
}

// A journal holding a header, an ok record with a real result and a
// quarantined record.
TEST(SnapshotImageTest, JournalFileIsPinned) {
  ExperimentConfig config = Cell("mpeg", "PAST-peg-peg-93-98");
  config.duration = SimTime::Seconds(1);
  config.faults = "storm=0.3,seed=11";

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dcs_snapshot_image_" + std::to_string(static_cast<long>(::getpid())) + ".journal"))
          .string();
  std::string error;
  {
    auto writer = JournalWriter::Create(path, &error);
    ASSERT_NE(writer, nullptr) << error;
    JournalHeader header;
    header.grid_fingerprint = GridFingerprint({config, config});
    header.jobs = 2;
    header.label = "pin";
    ASSERT_TRUE(writer->AppendHeader(header, &error)) << error;
    JournalRecord ok;
    ok.slot = 0;
    ok.config_fingerprint = ConfigFingerprint(config);
    ok.ok = true;
    ok.attempts = 1;
    ok.result = RunExperiment(config);
    ASSERT_TRUE(writer->AppendRecord(ok, &error)) << error;
    JournalRecord quarantined;
    quarantined.slot = 1;
    quarantined.config_fingerprint = ConfigFingerprint(config);
    quarantined.quarantined = true;
    quarantined.attempts = 3;
    quarantined.error = "job timed out";
    ASSERT_TRUE(writer->AppendRecord(quarantined, &error)) << error;
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::filesystem::remove(path);
  const std::string file = bytes.str();
  EXPECT_EQ(Fnv(file.data(), file.size()), "52e90e3e56859a88");
}

}  // namespace
}  // namespace dcs
