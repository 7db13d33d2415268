// The competitive-ratio acceptance suite (ctest label: ratio).  For every
// governor in the registry slate, a run's ground-truth energy must be at
// least the offline optimum for the work it executed — ratio >= 1.0, with no
// tolerance beyond floating-point noise.  A sub-1.0 ratio means either the
// lower bound is wrong (solver bug) or the work trace overstates what ran
// (accounting bug); both are release blockers for the bench.

#include "src/exp/competitive.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "src/core/governor_registry.h"
#include "src/exp/experiment.h"

namespace dcs {
namespace {

constexpr double kTolerance = 1e-9;

ExperimentConfig SmallConfig(const std::string& app, const std::string& governor) {
  ExperimentConfig config;
  config.app = app;
  config.governor = governor;
  config.seed = 7;
  config.duration = SimTime::Seconds(2);
  if (app == "server") {
    ServerConfig scenario;
    scenario.duration = *config.duration;
    config.server = scenario;
  }
  return config;
}

class CompetitiveRatioTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CompetitiveRatioTest, RatioAtLeastOneOnEveryAppAndWindow) {
  const EnergyModel model = MakeItsyEnergyModel(ItsyConfig{}.power);
  const double quantum_seconds = KernelConfig{}.quantum.ToSeconds();
  for (const char* app : {"mpeg", "server"}) {
    const ExperimentResult result =
        RunExperiment(SmallConfig(app, GetParam()), ExperimentReads::kFullResult);
    const std::vector<double> work = WorkTraceFromResult(result);
    ASSERT_FALSE(work.empty()) << app;
    double prev_opt = 1e300;
    for (const int window : {1, 5, 25}) {
      const CompetitiveScore score =
          ScoreCompetitive(result, window, model, quantum_seconds);
      EXPECT_GE(score.ratio, 1.0 - kTolerance)
          << GetParam() << " on " << app << " D=" << window;
      EXPECT_GT(score.optimal_joules, 0.0) << app << " D=" << window;
      EXPECT_EQ(score.run_joules, result.exact_energy_joules) << app;
      EXPECT_GT(score.total_work_seconds, 0.0) << app;
      EXPECT_LE(score.opt_peak_speed, 1.0 + kTolerance) << app << " D=" << window;
      // More slack can only help the offline schedule.
      EXPECT_LE(score.optimal_joules, prev_opt + 1e-12) << app << " D=" << window;
      prev_opt = score.optimal_joules;
    }
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

INSTANTIATE_TEST_SUITE_P(AllGovernors, CompetitiveRatioTest,
                         ::testing::ValuesIn(AllGovernorSpecs()), SpecName);

TEST(CompetitiveScoreTest, WorkTraceMatchesRecordedQuantaAndFitsTheQuantum) {
  const ExperimentResult result =
      RunExperiment(SmallConfig("mpeg", "PAST-peg-peg-93-98"), ExperimentReads::kFullResult);
  const std::vector<double> work = WorkTraceFromResult(result);
  ASSERT_FALSE(work.empty());
  const double quantum_seconds = KernelConfig{}.quantum.ToSeconds();
  double total = 0.0;
  for (const double w : work) {
    EXPECT_GE(w, 0.0);
    // Tick jitter may stretch a quantum slightly; 2x is far beyond it.
    EXPECT_LE(w, 2.0 * quantum_seconds);
    total += w;
  }
  EXPECT_GT(total, 0.0);
}

TEST(CompetitiveScoreTest, ScoringIsAPureFunctionOfTheResult) {
  const ExperimentResult result =
      RunExperiment(SmallConfig("mpeg", "deadline"), ExperimentReads::kFullResult);
  const EnergyModel model = MakeItsyEnergyModel(ItsyConfig{}.power);
  const double quantum_seconds = KernelConfig{}.quantum.ToSeconds();
  const CompetitiveScore a = ScoreCompetitive(result, 5, model, quantum_seconds);
  const CompetitiveScore b = ScoreCompetitive(result, 5, model, quantum_seconds);
  EXPECT_EQ(a.ratio, b.ratio);
  EXPECT_EQ(a.optimal_joules, b.optimal_joules);
  EXPECT_EQ(a.opt_peak_speed, b.opt_peak_speed);
}

TEST(CompetitiveScoreTest, StampWritesTheMetricsGauges) {
  ExperimentResult result =
      RunExperiment(SmallConfig("mpeg", "ondemand"), ExperimentReads::kFullResult);
  const EnergyModel model = MakeItsyEnergyModel(ItsyConfig{}.power);
  const CompetitiveScore score =
      ScoreCompetitive(result, 5, model, KernelConfig{}.quantum.ToSeconds());
  StampCompetitiveMetrics(result, 5, score);
  EXPECT_DOUBLE_EQ(result.metrics.Gauge("ratio.d5").value(), score.ratio);
  EXPECT_DOUBLE_EQ(result.metrics.Gauge("ratio.d5.opt_joules").value(), score.optimal_joules);
  EXPECT_DOUBLE_EQ(result.metrics.Gauge("ratio.d5.opt_peak_speed").value(),
                   score.opt_peak_speed);
}

TEST(CompetitiveScoreTest, FaultedRunsStillScoreAtLeastOne) {
  // Fault injection perturbs transitions and the DAQ, but the power tape and
  // the recorded work stay consistent, so the bound must still hold.
  ExperimentConfig config = SmallConfig("mpeg", "pid-vs");
  config.faults = "storm=0.35,seed=11";
  const ExperimentResult result = RunExperiment(config, ExperimentReads::kFullResult);
  const EnergyModel model = MakeItsyEnergyModel(ItsyConfig{}.power);
  const CompetitiveScore score =
      ScoreCompetitive(result, 5, model, KernelConfig{}.quantum.ToSeconds());
  EXPECT_GE(score.ratio, 1.0 - kTolerance);
}

}  // namespace
}  // namespace dcs
