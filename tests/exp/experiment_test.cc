#include "src/exp/experiment.h"

#include <gtest/gtest.h>

namespace dcs {
namespace {

ExperimentConfig ShortMpeg(const std::string& governor, std::uint64_t seed = 7) {
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = governor;
  config.seed = seed;
  config.duration = SimTime::Seconds(10);
  return config;
}

TEST(ExperimentTest, ProducesPlausibleEnergyAndPower) {
  const ExperimentResult result = RunExperiment(ShortMpeg("fixed-206.4"));
  EXPECT_GT(result.energy_joules, 5.0);
  EXPECT_LT(result.energy_joules, 30.0);
  EXPECT_NEAR(result.average_watts, result.energy_joules / 10.0, 0.01);
  EXPECT_GT(result.avg_utilization, 0.4);
  EXPECT_LT(result.avg_utilization, 1.0);
}

TEST(ExperimentTest, DaqMeasurementTracksGroundTruth) {
  const ExperimentResult result = RunExperiment(ShortMpeg("fixed-206.4"));
  EXPECT_NEAR(result.energy_joules, result.exact_energy_joules,
              result.exact_energy_joules * 0.01);
}

TEST(ExperimentTest, GovernorNameRecorded) {
  EXPECT_EQ(RunExperiment(ShortMpeg("PAST-peg-peg-93-98")).governor, "PAST-peg-peg-93/98");
  EXPECT_EQ(RunExperiment(ShortMpeg("none")).governor, "none");
}

TEST(ExperimentTest, NoGovernorStaysAtInitialStep) {
  ExperimentConfig config = ShortMpeg("none");
  config.itsy.initial_step = 5;
  const ExperimentResult result = RunExperiment(config);
  EXPECT_EQ(result.clock_changes, 0);
  EXPECT_NEAR(result.step_residency[5], 1.0, 0.01);
}

TEST(ExperimentTest, StepResidencySumsToOne) {
  const ExperimentResult result = RunExperiment(ShortMpeg("PAST-peg-peg-93-98"));
  double total = 0.0;
  for (const double r : result.step_residency) {
    total += r;
  }
  EXPECT_NEAR(total, 1.0, 0.01);
}

TEST(ExperimentTest, DeterministicForSameSeed) {
  const ExperimentResult a = RunExperiment(ShortMpeg("PAST-peg-peg-93-98", 3));
  const ExperimentResult b = RunExperiment(ShortMpeg("PAST-peg-peg-93-98", 3));
  EXPECT_DOUBLE_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.clock_changes, b.clock_changes);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
}

TEST(ExperimentTest, SeedChangesOutcomeSlightly) {
  const ExperimentResult a = RunExperiment(ShortMpeg("fixed-206.4", 3));
  const ExperimentResult b = RunExperiment(ShortMpeg("fixed-206.4", 4));
  EXPECT_NE(a.energy_joules, b.energy_joules);
  // ... but not by much: same workload, different jitter.
  EXPECT_NEAR(a.energy_joules, b.energy_joules, a.energy_joules * 0.05);
}

TEST(ExperimentTest, RecordsUtilizationAndFrequencySeries) {
  const ExperimentResult result = RunExperiment(ShortMpeg("PAST-peg-peg-93-98"));
  const TraceSeries* util = result.sink.Find("utilization");
  ASSERT_NE(util, nullptr);
  EXPECT_NEAR(static_cast<double>(util->size()), 1000.0, 5.0);  // 10 s of 10 ms quanta
  const TraceSeries* freq = result.sink.Find("freq_mhz");
  ASSERT_NE(freq, nullptr);
  EXPECT_GT(freq->size(), 10u);  // peg-peg flaps
}

// The run reserves every series for one point per quantum so the tick path
// never reallocates; the result keeps what was recorded.  The change series
// (clock and rail) are trimmed to their points.  The per-quantum series
// fill their reservation and keep it, uncopied.
TEST(ExperimentTest, ResultSeriesHoldOnlyTheirPoints) {
  ExperimentConfig config = ShortMpeg("PAST-peg-peg-93-98");
  config.app = "chess";
  const ExperimentResult result = RunExperiment(config);
  ASSERT_EQ(result.quanta, 1000u);
  for (const char* name : {"freq_mhz", "core_volts"}) {
    const TraceSeries* series = result.sink.Find(name);
    ASSERT_NE(series, nullptr) << name;
    EXPECT_LT(series->size(), result.quanta / 2) << name << " is not sparse here";
    EXPECT_EQ(series->points().capacity(), series->size()) << name;
  }
  for (const char* name : {"utilization", "work_fs_us"}) {
    const TraceSeries* series = result.sink.Find(name);
    ASSERT_NE(series, nullptr) << name;
    EXPECT_EQ(series->size(), result.quanta) << name;
    EXPECT_EQ(series->points().capacity(), result.quanta + 1)
        << name << ": the reservation was copied or regrown";
  }
}

TEST(ExperimentTest, DeadlineStreamsExposed) {
  const ExperimentResult result = RunExperiment(ShortMpeg("fixed-206.4"));
  ASSERT_TRUE(result.streams.contains("video_frame"));
  ASSERT_TRUE(result.streams.contains("audio"));
  EXPECT_GT(result.streams.at("video_frame").total, 100);
  EXPECT_TRUE(result.MetAllDeadlines());
}

TEST(ExperimentTest, VoltageScalingGovernorTransitionsRail) {
  const ExperimentResult result = RunExperiment(ShortMpeg("PAST-peg-peg-93-98-vs"));
  EXPECT_GT(result.voltage_transitions, 10);
}

TEST(ExperimentTest, StallTimeTracksClockChanges) {
  const ExperimentResult result = RunExperiment(ShortMpeg("PAST-peg-peg-93-98"));
  EXPECT_EQ(result.total_stall, SimTime::Micros(200) * result.clock_changes);
}

TEST(ExperimentTest, AllAppsRunUnderAllPaperGovernors) {
  for (const char* app : {"mpeg", "web", "chess", "editor"}) {
    ExperimentConfig config;
    config.app = app;
    config.governor = "PAST-peg-peg-93-98";
    config.seed = 5;
    config.duration = SimTime::Seconds(8);
    const ExperimentResult result = RunExperiment(config);
    EXPECT_GT(result.energy_joules, 0.0) << app;
    EXPECT_EQ(result.app, app);
  }
}

}  // namespace
}  // namespace dcs
