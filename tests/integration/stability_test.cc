// End-to-end reproduction of the paper's stability analysis (section 5.3,
// Figures 6 and 7, Table 1): AVG_N oscillates on a periodic workload even
// when started at the ideal clock speed, through the *whole* stack — a real
// kernel, a spin/sleep rectangle-wave task, and an AVG_N interval governor.

#include <gtest/gtest.h>

#include "src/analysis/filters.h"
#include "src/analysis/utilization.h"
#include "src/core/interval_governor.h"
#include "src/core/predictor.h"
#include "src/exp/experiment.h"
#include "src/hw/itsy.h"
#include "src/kernel/kernel.h"
#include "src/sim/simulator.h"
#include "src/workload/synthetic.h"
#include "tests/support/synthetic_workloads.h"

namespace dcs {
namespace {

// Runs a 9-busy/1-idle rectangle wave under an AVG_N-one-one governor and
// returns the recorded clock-frequency series.
struct WaveRun {
  int clock_changes = 0;
  std::vector<double> weighted;  // governor's W per quantum
  std::vector<double> freq_mhz_series;
};

WaveRun RunWave(int n, double lo, double hi, int start_step, double seconds) {
  Simulator sim;
  ItsyConfig itsy_config;
  itsy_config.initial_step = start_step;
  Itsy itsy(sim, itsy_config);
  Kernel kernel(sim, itsy);
  IntervalGovernorConfig config;
  config.thresholds = Thresholds{lo, hi};
  IntervalGovernor governor(std::make_unique<AvgNPredictor>(n), MakeSpeedPolicy("one"),
                            MakeSpeedPolicy("one"), config);

  // Wrap the governor to record its weighted utilization each quantum.
  class Recorder final : public ClockPolicy {
   public:
    Recorder(IntervalGovernor& inner, WaveRun& out) : inner_(inner), out_(out) {}
    const char* Name() const override { return inner_.Name(); }
    std::optional<SpeedRequest> OnQuantum(const UtilizationSample& sample) override {
      auto request = inner_.OnQuantum(sample);
      out_.weighted.push_back(inner_.weighted_utilization());
      return request;
    }

   private:
    IntervalGovernor& inner_;
    WaveRun& out_;
  };

  WaveRun out;
  Recorder recorder(governor, out);
  kernel.InstallPolicy(&recorder);
  kernel.AddTask(std::make_unique<RectangleWaveWorkload>(9, 1));
  kernel.Start();
  sim.RunUntil(SimTime::FromSecondsF(seconds));
  out.clock_changes = itsy.clock_changes();
  const TraceSeries* freq = kernel.sink().Find("freq_mhz");
  if (freq != nullptr) {
    out.freq_mhz_series = SeriesValues(*freq);
  }
  return out;
}

TEST(StabilityTest, Figure7WeightedUtilizationOscillates) {
  // Offline replication of Figure 7: AVG3 on the rectangle wave oscillates
  // "over a surprisingly wide range".
  const auto wave = RectangleWaveSamples(9, 1, 800);
  const auto filtered = AvgNFilter(wave, 3);
  const OscillationStats stats = AnalyzeOscillation(filtered, 200);
  EXPECT_GT(stats.amplitude, 0.15);
  EXPECT_EQ(stats.period % 10, 0);
}

TEST(StabilityTest, GovernorOscillatesEvenWhenStartedAtIdealSpeed) {
  // "even if the system is started out at the ideal clock speed, AVG_N
  // smoothing will still result in undesirable oscillation."  AVG3 on the
  // 9-busy/1-idle wave oscillates between W ~0.73 and ~0.98; any hysteresis
  // band inside that range (here 80/90) keeps tripping both thresholds, so
  // the clock never stops moving.
  const WaveRun run = RunWave(3, 0.80, 0.90, /*start_step=*/9, 20.0);
  EXPECT_GT(run.clock_changes, 100);
}

TEST(StabilityTest, GovernorWeightedUtilizationKeepsOscillating) {
  const WaveRun run = RunWave(3, 0.80, 0.90, 9, 20.0);
  ASSERT_GT(run.weighted.size(), 500u);
  const OscillationStats stats =
      AnalyzeOscillation(std::span<const double>(run.weighted).subspan(500));
  EXPECT_GT(stats.amplitude, 0.1);
}

TEST(StabilityTest, LargerNOscillatesLessButLagsMore) {
  // The Fourier argument: larger N attenuates high frequencies more (smaller
  // amplitude) at the cost of a longer reaction lag.
  const auto wave = RectangleWaveSamples(9, 1, 3000);
  const auto avg1 = AvgNFilter(wave, 1);
  const auto avg9 = AvgNFilter(wave, 9);
  const double amp1 = AnalyzeOscillation(avg1, 1000).amplitude;
  const double amp9 = AnalyzeOscillation(avg9, 1000).amplitude;
  EXPECT_GT(amp1, amp9);
  EXPECT_GT(amp9, 0.0);

  // Lag: quanta for W to cross 0.7 from idle.
  auto lag = [](int n) {
    AvgNPredictor predictor(n);
    int quanta = 0;
    while (predictor.Update(1.0) <= 0.7 && quanta < 1000) {
      ++quanta;
    }
    return quanta;
  };
  EXPECT_LT(lag(1), lag(9));
}

// The paper's "pure average": a sliding-window predictor's output per sample.
std::vector<double> SlidingWindowResponse(const std::vector<double>& signal, int window) {
  SlidingWindowPredictor predictor(window);
  std::vector<double> out;
  out.reserve(signal.size());
  for (const double u : signal) {
    out.push_back(predictor.Update(u));
  }
  return out;
}

TEST(StabilityTest, PureAverageNoBetterThanWeighted) {
  // "our simulations indicated that that policy would perform no better
  // than the weighted averaging policy."
  const auto wave = RectangleWaveSamples(9, 1, 3000);
  const auto sliding = SlidingWindowResponse(wave, 4);
  const double amplitude = AnalyzeOscillation(sliding, 1000).amplitude;
  EXPECT_GT(amplitude, 0.1);  // oscillates too
}

TEST(StabilityTest, PureAverageWithMatchedWindowStillFailsOffPeriod) {
  // A sliding window equal to the wave period is flat...
  const auto wave10 = RectangleWaveSamples(9, 1, 2000);
  const auto matched = SlidingWindowResponse(wave10, 10);
  EXPECT_LT(AnalyzeOscillation(matched, 500).amplitude, 1e-9);
  // ...but "simple averaging suffers from the same problems ... if you do
  // not average the appropriate period": a 7-sample window oscillates.
  const auto mismatched = SlidingWindowResponse(wave10, 7);
  EXPECT_GT(AnalyzeOscillation(mismatched, 500).amplitude, 0.1);
}

TEST(StabilityTest, MpegInducesSameOscillationUnderAvg3) {
  // The paper: "our experimental results with the MPEG player on the Itsy
  // also exhibit this oscillation because that application exhibits the same
  // step-function resource demands exhibited by our example."
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = "AVG3-one-one-50-85";
  config.seed = 13;
  config.duration = SimTime::Seconds(30);
  const ExperimentResult result = RunExperiment(config);
  EXPECT_GT(result.clock_changes, 100);
}

}  // namespace
}  // namespace dcs
