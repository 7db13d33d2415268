// Determinism sweep: identical configurations must produce bit-identical
// results for every governor in the registry.  This is what makes the
// repeated-run confidence intervals meaningful and the benches reproducible;
// it would catch unordered-container iteration, uninitialised state, or
// accidental wall-clock dependencies anywhere in the stack.

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "src/core/governor_registry.h"
#include "src/exp/experiment.h"

namespace dcs {
namespace {

class DeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DeterminismTest, IdenticalRunsProduceIdenticalResults) {
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = GetParam();
  config.seed = 19;
  config.duration = SimTime::Seconds(8);

  const ExperimentResult a = RunExperiment(config, ExperimentReads::kFullResult);
  const ExperimentResult b = RunExperiment(config, ExperimentReads::kFullResult);

  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.exact_energy_joules, b.exact_energy_joules);
  EXPECT_EQ(a.clock_changes, b.clock_changes);
  EXPECT_EQ(a.voltage_transitions, b.voltage_transitions);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.deadline_events, b.deadline_events);
  EXPECT_EQ(a.worst_lateness, b.worst_lateness);
  EXPECT_EQ(a.avg_utilization, b.avg_utilization);
  EXPECT_EQ(a.total_stall, b.total_stall);
  for (int step = 0; step < kNumClockSteps; ++step) {
    EXPECT_EQ(a.step_residency[static_cast<std::size_t>(step)],
              b.step_residency[static_cast<std::size_t>(step)])
        << "step " << step;
  }
  // The recorded series are identical point for point.
  const TraceSeries* ua = a.sink.Find("utilization");
  const TraceSeries* ub = b.sink.Find("utilization");
  ASSERT_NE(ua, nullptr);
  ASSERT_NE(ub, nullptr);
  ASSERT_EQ(ua->size(), ub->size());
  for (std::size_t i = 0; i < ua->size(); ++i) {
    EXPECT_EQ(ua->points()[i], ub->points()[i]) << "quantum " << i;
  }
}

std::string SpecName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllGovernors, DeterminismTest,
    ::testing::Values("none", "fixed-206.4", "fixed-132.7@1.23", "PAST-peg-peg-93-98",
                      "PAST-peg-peg-93-98-vs", "AVG9-one-one-50-70", "WIN10-peg-peg-93-98",
                      "PAST-double-double-50-70", "cycles4", "satrate4", "deadline",
                      "deadline-vs", "ondemand", "schedutil", "flat-75",
                      "LS-peg-peg-93-98", "CYCLE10-peg-peg-93-98", "PEAK-peg-peg-93-98"),
    SpecName);

TEST(DeterminismTest, DifferentAppsAlsoDeterministic) {
  for (const char* app : {"web", "chess", "editor"}) {
    ExperimentConfig config;
    config.app = app;
    config.governor = "deadline";
    config.seed = 19;
    config.duration = SimTime::Seconds(10);
    const ExperimentResult a = RunExperiment(config);
    const ExperimentResult b = RunExperiment(config);
    EXPECT_EQ(a.energy_joules, b.energy_joules) << app;
    EXPECT_EQ(a.clock_changes, b.clock_changes) << app;
  }
}

}  // namespace
}  // namespace dcs
