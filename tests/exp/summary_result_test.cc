// The summary declaration (ExperimentReads::kSummary, what RunExperiment(config)
// runs) keeps no trace series and binds no metrics registry.  Everything
// else it reports must be the full result's, bit for bit: its
// avg_utilization comes from the kernel's running sum instead of the
// recorded "utilization" series, and a summary image carries that sum.

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <tuple>

#include "src/exp/device_sim.h"
#include "src/exp/experiment.h"
#include "src/exp/journal.h"
#include "src/sim/snapshot.h"

namespace dcs {
namespace {

// Every field but `sink`, `metrics` and `obs`, byte for byte (the journal's
// result frame).
std::string ScalarBytes(ExperimentResult result) {
  result.sink = TraceSink{};
  result.metrics = MetricsRegistry{};
  SnapshotWriter w;
  SerializeResult(result, &w);
  return std::string(w.data(), w.size());
}

void ExpectSameObs(const ObsCapture& a, const ObsCapture& b) {
  ASSERT_EQ(a.captured, b.captured);
  EXPECT_EQ(a.window_begin, b.window_begin);
  EXPECT_EQ(a.window_end, b.window_end);
  ASSERT_EQ(a.sched.size(), b.sched.size());
  for (std::size_t i = 0; i < a.sched.size(); ++i) {
    EXPECT_EQ(a.sched[i].time_us, b.sched[i].time_us) << "entry " << i;
    EXPECT_EQ(a.sched[i].pid, b.sched[i].pid) << "entry " << i;
    EXPECT_EQ(a.sched[i].clock_step, b.sched[i].clock_step) << "entry " << i;
  }
  ASSERT_EQ(a.power.segments().size(), b.power.segments().size());
  for (std::size_t i = 0; i < a.power.segments().size(); ++i) {
    EXPECT_EQ(a.power.segments()[i].start, b.power.segments()[i].start) << "segment " << i;
    EXPECT_EQ(a.power.segments()[i].watts, b.power.segments()[i].watts) << "segment " << i;
  }
  EXPECT_EQ(a.task_names, b.task_names);
  EXPECT_EQ(a.energy.joules_by_pid, b.energy.joules_by_pid);
  EXPECT_EQ(a.energy.held_by_pid, b.energy.held_by_pid);
  EXPECT_EQ(a.energy.joules_by_step, b.energy.joules_by_step);
  EXPECT_EQ(a.energy.total_joules, b.energy.total_joules);
  EXPECT_EQ(a.energy.attributed_joules, b.energy.attributed_joules);
}

// The summary has no series or registry, and every other field is the
// full result's.
void ExpectSummaryOfFull(const ExperimentResult& summary, const ExperimentResult& full) {
  EXPECT_TRUE(summary.sink.Names().empty());
  EXPECT_TRUE(summary.metrics.empty());
  ASSERT_NE(full.sink.Find("utilization"), nullptr);
  EXPECT_FALSE(full.metrics.empty());
  EXPECT_EQ(ScalarBytes(summary), ScalarBytes(full));
  EXPECT_EQ(summary.avg_utilization, full.avg_utilization);
  ExpectSameObs(summary.obs, full.obs);
}

ExperimentConfig ShortRun(const std::string& app, const std::string& governor) {
  ExperimentConfig config;
  config.app = app;
  config.governor = governor;
  config.seed = 9;
  config.duration = SimTime::Seconds(3);
  return config;
}

using SummaryCase = std::tuple<std::string, std::string>;

class SummaryResultTest : public ::testing::TestWithParam<SummaryCase> {};

TEST_P(SummaryResultTest, IsTheFullResultWithoutSeriesOrRegistry) {
  const ExperimentConfig config = ShortRun(std::get<0>(GetParam()), std::get<1>(GetParam()));
  const ExperimentResult summary = RunExperiment(config);
  const ExperimentResult full = RunExperiment(config, ExperimentReads::kFullResult);
  EXPECT_GT(summary.quanta, 0u);
  EXPECT_GT(summary.avg_utilization, 0.0);
  ExpectSummaryOfFull(summary, full);
}

std::string CaseName(const ::testing::TestParamInfo<SummaryCase>& info) {
  std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AppsAndGovernors, SummaryResultTest,
    ::testing::Combine(::testing::Values("mpeg", "web", "chess", "editor", "server"),
                       ::testing::Values("fixed-132.7", "PAST-peg-peg-93-98",
                                         "AVG9-one-one-50-70", "adaptive-vs", "deadline-vs")),
    CaseName);

// A fault plan arms the invariant checker, which keeps the tape history and
// sched log whatever the caller reads; the fault report must agree too.
TEST(SummaryResultTest, FaultStormAgreesOnTheFaultReport) {
  for (const char* app : {"mpeg", "server"}) {
    SCOPED_TRACE(app);
    ExperimentConfig config = ShortRun(app, "pid-vs");
    config.faults = "storm=0.3,seed=11";
    const ExperimentResult summary = RunExperiment(config);
    const ExperimentResult full = RunExperiment(config, ExperimentReads::kFullResult);
    ASSERT_TRUE(summary.faults.enabled);
    EXPECT_GT(summary.faults.injected_total, 0u);
    ExpectSummaryOfFull(summary, full);
  }
}

TEST(SummaryResultTest, CaptureObsAgreesOnTheCapture) {
  for (const char* app : {"mpeg", "server"}) {
    SCOPED_TRACE(app);
    ExperimentConfig config = ShortRun(app, "PAST-peg-peg-93-98");
    config.capture_obs = true;
    const ExperimentResult summary = RunExperiment(config);
    const ExperimentResult full = RunExperiment(config, ExperimentReads::kFullResult);
    ASSERT_TRUE(summary.obs.captured);
    EXPECT_FALSE(summary.obs.sched.empty());
    ExpectSummaryOfFull(summary, full);
  }
}

// A summary device saved mid-run and loaded into a fresh summary device
// finishes with the uninterrupted run's result: the image carries the
// running utilization sum.
TEST(SummaryResultTest, RestoredSummaryDeviceFinishesAsTheUninterruptedRun) {
  struct Case {
    const char* app;
    const char* governor;
    const char* faults;
  };
  for (const Case& c : {Case{"mpeg", "PAST-peg-peg-93-98", ""}, Case{"web", "adaptive-vs", ""},
                        Case{"server", "deadline-vs", ""},
                        Case{"mpeg", "pid-vs", "storm=0.3,seed=11"}}) {
    SCOPED_TRACE(std::string(c.app) + " " + c.governor + " " + c.faults);
    ExperimentConfig config = ShortRun(c.app, c.governor);
    config.faults = c.faults;
    const ExperimentResult uninterrupted = RunExperiment(config);

    DeviceSim source(config, DeviceSim::Reads::kSummary);
    source.Start();
    source.RunUntil(SimTime::Millis(1500));
    SnapshotWriter image;
    source.SaveState(&image);

    DeviceSim fresh(config, DeviceSim::Reads::kSummary);
    SnapshotReader r(image);
    fresh.LoadState(&r);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.AtEnd());
    EXPECT_EQ(fresh.kernel().utilization_sum(), source.kernel().utilization_sum());
    fresh.RunUntil(fresh.duration());
    const ExperimentResult restored = fresh.Finish();
    EXPECT_EQ(restored.avg_utilization, uninterrupted.avg_utilization);
    EXPECT_EQ(ScalarBytes(restored), ScalarBytes(uninterrupted));
  }
}

}  // namespace
}  // namespace dcs
