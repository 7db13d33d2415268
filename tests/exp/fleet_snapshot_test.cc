// Snapshot determinism: forking a device from a mid-run image must be
// indistinguishable from never having stopped.  For every registered
// governor spec, with and without fault injection, three paths must produce
// byte-identical serialized results (journal.h SerializeResult covers every
// field of ExperimentResult, including the full metrics registry):
//
//   straight:  build -> run to the horizon -> Finish
//   rewind:    build -> run past the snapshot point to the horizon ->
//              LoadState back to the snapshot -> run again -> Finish
//              (the fleet worker's in-place device-cycling path)
//   fresh:     build a second stack from the same config -> LoadState the
//              image -> run -> Finish (the clone-onto-new-worker path)
//
// The rewind path is the stronger check: the stack is "dirty" with a
// completed run's state, so any component whose LoadState merges instead of
// overwrites shows up as a diff here.

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/governor_registry.h"
#include "src/exp/device_sim.h"
#include "src/exp/experiment.h"
#include "src/exp/journal.h"
#include "src/sim/snapshot.h"

namespace dcs {
namespace {

std::string ResultBytes(const ExperimentResult& result) {
  SnapshotWriter w;
  SerializeResult(result, &w);
  return std::string(w.data(), w.size());
}

ExperimentConfig BaseConfig(const std::string& governor, const std::string& faults) {
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = governor;
  config.seed = 7;
  config.duration = SimTime::Seconds(2);
  config.faults = faults;
  // Battery engaged so the image also covers charge state and death times.
  config.itsy.battery = BatteryParams{};
  return config;
}

class FleetSnapshotTest : public ::testing::TestWithParam<std::string> {};

void ExpectSnapshotPathsIdentical(const ExperimentConfig& config) {
  const SimTime snap_at = SimTime::Millis(900);

  // Straight run: the reference bytes.
  DeviceSim straight(config);
  const std::string expected = ResultBytes(straight.Run());

  // Image at the snapshot point.
  DeviceSim source(config);
  source.Start();
  source.RunUntil(snap_at);
  SnapshotWriter image;
  source.SaveState(&image);

  // Rewind: run the source to completion first, then load the image back
  // into the same (dirty) stack and re-run the tail.
  source.RunUntil(source.duration());
  SnapshotReader rewind_reader(image);
  source.LoadState(&rewind_reader);
  ASSERT_TRUE(rewind_reader.ok()) << "image failed to restore in place";
  ASSERT_TRUE(rewind_reader.AtEnd()) << "image has trailing bytes";
  source.RunUntil(source.duration());
  EXPECT_EQ(ResultBytes(source.Finish()), expected) << "rewound run diverged";

  // Fresh: clone the image onto a brand-new stack built from the config.
  DeviceSim clone(config);
  SnapshotReader clone_reader(image);
  clone.LoadState(&clone_reader);
  ASSERT_TRUE(clone_reader.ok()) << "image failed to restore onto fresh stack";
  clone.RunUntil(clone.duration());
  EXPECT_EQ(ResultBytes(clone.Finish()), expected) << "cloned run diverged";
}

TEST_P(FleetSnapshotTest, FaultFreeRunSurvivesSnapshotRoundTrip) {
  ExpectSnapshotPathsIdentical(BaseConfig(GetParam(), ""));
}

TEST_P(FleetSnapshotTest, FaultedRunSurvivesSnapshotRoundTrip) {
  ExpectSnapshotPathsIdentical(BaseConfig(GetParam(), "storm=0.3"));
}

std::string SpecToTestName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)))) {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllGovernors, FleetSnapshotTest,
                         ::testing::ValuesIn(AllGovernorSpecs()), SpecToTestName);

// The server app exercises the snapshot paths the MPEG bundle does not:
// open-loop arrivals, the admission gate's metrics binding, and per-request
// latency histograms in the deadline monitor.
TEST(FleetSnapshotServerTest, ServerAppSurvivesSnapshotRoundTrip) {
  ExperimentConfig config;
  config.app = "server";
  config.governor = "pid-vs";
  config.seed = 11;
  config.duration = SimTime::Seconds(2);
  config.server.emplace();
  config.server->rate_rps = 150.0;
  config.server->duration = SimTime::Seconds(2);
  config.itsy.battery = BatteryParams{};
  ExpectSnapshotPathsIdentical(config);
}

// A feedback admission gate puts the controller's own state (its adapted
// bound and violation window) into the image.
TEST(FleetSnapshotServerTest, FeedbackAdmissionSurvivesSnapshotRoundTrip) {
  ExperimentConfig config;
  config.app = "server";
  config.governor = "pid-vs";
  config.seed = 11;
  config.duration = SimTime::Seconds(2);
  config.server.emplace();
  config.server->rate_rps = 320.0;
  config.server->duration = SimTime::Seconds(2);
  config.server->admission.policy = AdmissionPolicy::kFeedback;
  config.itsy.battery = BatteryParams{};
  ExpectSnapshotPathsIdentical(config);
}

// A load is the inverse of a save: an image saved straight after loading
// one, with nothing run in between, is the image that was loaded, byte for
// byte.  Every pending event goes back at its saved (time, seq), so the
// re-saved events carry the same numbers.  Checked on a dirty stack (the
// source, run to its horizon first) and on a fresh one, for each fleet_clone
// governor and the history-window governors, on every fleet_clone app, for
// both what a fleet device and what a sweep device records.
using RoundTripCase = std::tuple<std::string, std::string, DeviceSim::Reads>;

class ImageRoundTripTest : public ::testing::TestWithParam<RoundTripCase> {};

void ExpectReloadedImageUnchanged(const ExperimentConfig& config, DeviceSim::Reads reads) {
  DeviceSim source(config, reads);
  source.Start();
  source.RunUntil(SimTime::Millis(500));
  SnapshotWriter image;
  source.SaveState(&image);
  const std::string want(image.data(), image.size());

  source.RunUntil(source.duration());
  DeviceSim fresh(config, reads);
  for (DeviceSim* target : {&source, &fresh}) {
    SnapshotReader r(image);
    target->LoadState(&r);
    ASSERT_TRUE(r.ok());
    SnapshotWriter again;
    target->SaveState(&again);
    EXPECT_EQ(std::string(again.data(), again.size()), want)
        << (target == &source ? "dirty stack" : "fresh stack");
  }
}

TEST_P(ImageRoundTripTest, ImageSavedAfterALoadEqualsTheImageLoaded) {
  ExperimentConfig config;
  config.governor = std::get<0>(GetParam());
  config.app = std::get<1>(GetParam());
  config.seed = 3;
  config.duration = SimTime::Seconds(1);
  config.itsy.battery = BatteryParams{};
  if (config.app == "server") {
    config.server.emplace();
    config.server->duration = *config.duration;
  }
  ExpectReloadedImageUnchanged(config, std::get<2>(GetParam()));
}

std::string RoundTripName(const ::testing::TestParamInfo<RoundTripCase>& info) {
  std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param) +
                     (std::get<2>(info.param) == DeviceSim::Reads::kFleetTotals ? "_fleet"
                                                                                : "_full");
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    FleetGovernors, ImageRoundTripTest,
    ::testing::Combine(::testing::Values("fixed-132.7", "pid-vs", "adaptive-vs", "deadline-vs",
                                         "LS-peg-peg-93-98", "CYCLE10-peg-peg-93-98"),
                       ::testing::Values("mpeg", "web", "server"),
                       ::testing::Values(DeviceSim::Reads::kFleetTotals,
                                         DeviceSim::Reads::kFullResult)),
    RoundTripName);

// A faulted image adds the invariant checker's armed sweep and any armed
// brownout settle.
TEST(FaultedImageRoundTripTest, ImageSavedAfterALoadEqualsTheImageLoaded) {
  ExpectReloadedImageUnchanged(BaseConfig("pid-vs", "storm=0.3"), DeviceSim::Reads::kFullResult);
}

}  // namespace
}  // namespace dcs
