#include "src/exp/obs_export.h"

#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/exp/experiment.h"
#include "src/exp/flags.h"
#include "src/exp/sweep.h"

namespace dcs {
namespace {

std::vector<ExperimentConfig> SmallGrid() {
  std::vector<ExperimentConfig> configs;
  for (const char* governor : {"fixed-206.4", "PAST-peg-peg-93-98", "AVG9-peg-peg-93-98"}) {
    ExperimentConfig config;
    config.app = "mpeg";
    config.governor = governor;
    config.seed = 3;
    config.duration = SimTime::Seconds(2);
    config.capture_obs = true;
    configs.push_back(config);
  }
  return configs;
}

std::string RenderTrace(const std::vector<ExperimentResult>& results) {
  std::ostringstream os;
  WriteChromeTrace(results, os);
  return os.str();
}

std::string RenderMetrics(const std::vector<ExperimentResult>& results) {
  std::ostringstream os;
  AggregateMetrics(results).WriteJson(os);
  return os.str();
}

TEST(ObsExportTest, ExperimentLabelIsAppSlashGovernor) {
  ExperimentResult result;
  result.app = "mpeg";
  result.governor = "PAST-peg-peg-93-98";
  EXPECT_EQ(ExperimentLabel(result), "mpeg/PAST-peg-peg-93-98");
}

TEST(ObsExportTest, CapturedRunRendersSchedulerPowerAndGovernorTracks) {
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = "PAST-peg-peg-93-98";
  config.seed = 3;
  config.duration = SimTime::Seconds(2);
  config.capture_obs = true;
  const ExperimentResult result = RunExperiment(config);
  ASSERT_TRUE(result.obs.captured);

  ChromeTraceWriter writer;
  AppendExperimentTrace(writer, 1, result);
  EXPECT_GT(writer.event_count(), 100u);
  std::ostringstream os;
  writer.Write(os);
  const std::string trace = os.str();
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
  // The label carries the governor's canonical name, not the config spec.
  EXPECT_NE(trace.find("mpeg/PAST-peg-peg-93/98"), std::string::npos);
  EXPECT_NE(trace.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"idle\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);  // scheduler slices
  EXPECT_NE(trace.find("\"power_w\""), std::string::npos);   // power counter
  EXPECT_NE(trace.find("\"freq_mhz\""), std::string::npos);  // recorded series
  EXPECT_NE(trace.find("clock -> "), std::string::npos);     // governor markers
}

TEST(ObsExportTest, UncapturedRunStillRendersSeriesCounters) {
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = "PAST-peg-peg-93-98";
  config.seed = 3;
  config.duration = SimTime::Seconds(2);
  const ExperimentResult result = RunExperiment(config);
  EXPECT_FALSE(result.obs.captured);
  ChromeTraceWriter writer;
  AppendExperimentTrace(writer, 1, result);
  std::ostringstream os;
  writer.Write(os);
  const std::string trace = os.str();
  EXPECT_EQ(trace.find("\"ph\":\"X\""), std::string::npos);  // no sched capture
  EXPECT_NE(trace.find("\"freq_mhz\""), std::string::npos);
}

// The acceptance criterion: trace and metrics renderings are byte-identical
// whether the sweep ran on one thread or several.
TEST(ObsExportTest, ArtifactsAreByteIdenticalAcrossThreadCounts) {
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 4;
  const std::vector<ExperimentConfig> grid = SmallGrid();
  const std::vector<ExperimentResult> a = RunSweep(grid, serial);
  const std::vector<ExperimentResult> b = RunSweep(grid, parallel);
  EXPECT_EQ(RenderTrace(a), RenderTrace(b));
  EXPECT_EQ(RenderMetrics(a), RenderMetrics(b));
}

TEST(ObsExportTest, AggregateMetricsCountsJobsAndMerges) {
  SweepOptions options;
  options.threads = 2;
  const std::vector<ExperimentResult> results = RunSweep(SmallGrid(), options);
  const MetricsRegistry aggregate = AggregateMetrics(results);
  ASSERT_NE(aggregate.FindCounter("sweep.jobs"), nullptr);
  EXPECT_EQ(aggregate.FindCounter("sweep.jobs")->value(), results.size());
  // Counters sum across the runs.
  const MetricsCounter* quanta = aggregate.FindCounter("kernel.quanta");
  ASSERT_NE(quanta, nullptr);
  std::uint64_t expected = 0;
  for (const ExperimentResult& r : results) {
    expected += r.metrics.FindCounter("kernel.quanta")->value();
  }
  EXPECT_EQ(quanta->value(), expected);
  // Gauges average: the aggregate energy gauge is the mean of the runs'.
  const MetricsGauge* energy = aggregate.FindGauge("exp.energy_joules");
  ASSERT_NE(energy, nullptr);
  EXPECT_EQ(energy->samples(), results.size());
}

TEST(ObsExportTest, ExportIsNoOpWithoutFlagsAndFailsOnBadPath) {
  const std::vector<ExperimentResult> results;
  SweepOptions options;
  EXPECT_FALSE(options.WantsObsExport());
  EXPECT_TRUE(ExportObsArtifacts(options, results));

  options.trace_out = "/nonexistent-dir/trace.json";
  EXPECT_TRUE(options.WantsObsExport());
  EXPECT_TRUE(options.WantsObsCapture());
  std::string error;
  EXPECT_FALSE(ExportObsArtifacts(options, results, &error));
  EXPECT_NE(error.find("/nonexistent-dir/trace.json"), std::string::npos);
}

TEST(ObsExportTest, SweepOptionsParseObsFlags) {
  const char* argv[] = {"bench", "--trace-out=/tmp/t.json", "--metrics-out", "/tmp/m.json",
                        "--threads=2"};
  SweepOptions options;
  FlagSet flags;
  RegisterSweepFlags(flags, &options);
  std::string error;
  ASSERT_TRUE(flags.Parse(static_cast<int>(std::size(argv)), const_cast<char**>(argv), &error))
      << error;
  EXPECT_EQ(options.trace_out, "/tmp/t.json");
  EXPECT_EQ(options.metrics_out, "/tmp/m.json");
  EXPECT_EQ(options.threads, 2);
  EXPECT_TRUE(options.WantsObsExport());
}

}  // namespace
}  // namespace dcs
