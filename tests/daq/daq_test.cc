#include "src/daq/daq.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/daq/stats.h"
#include "src/fault/fault_injector.h"
#include "src/sim/rng.h"

namespace dcs {
namespace {

PowerTape ConstantTape(double watts) {
  PowerTape tape;
  tape.Set(SimTime::Zero(), watts);
  return tape;
}

TEST(DaqTest, SampleCountMatchesRateAndWindow) {
  Daq daq;
  const PowerTape tape = ConstantTape(1.0);
  const auto samples = daq.SampleWindow(tape, SimTime::Zero(), SimTime::Seconds(2));
  EXPECT_EQ(samples.size(), 10000u);  // 5000 Hz * 2 s
}

TEST(DaqTest, SamplePeriodIs200Microseconds) {
  Daq daq;
  EXPECT_EQ(daq.SamplePeriod(), SimTime::Micros(200));
}

TEST(DaqTest, MeasuresConstantPowerAccurately) {
  Daq daq;
  const PowerTape tape = ConstantTape(1.4);
  const auto samples = daq.SampleWindow(tape, SimTime::Zero(), SimTime::Seconds(1));
  const double avg = daq.AverageWatts(samples);
  // ADC quantisation + noise keep the error well under 1%.
  EXPECT_NEAR(avg, 1.4, 0.014);
}

TEST(DaqTest, EnergyIsRectangleRule) {
  Daq daq;
  const PowerTape tape = ConstantTape(2.0);
  const double joules = daq.EnergyJoules(daq.SampleWindow(tape, SimTime::Zero(), SimTime::Seconds(3)));
  EXPECT_NEAR(joules, 6.0, 0.06);
}

TEST(DaqTest, EnergyTracksStepChanges) {
  Daq daq;
  PowerTape tape;
  tape.Set(SimTime::Zero(), 1.0);
  tape.Set(SimTime::Seconds(1), 3.0);
  const double joules = daq.EnergyJoules(daq.SampleWindow(tape, SimTime::Zero(), SimTime::Seconds(2)));
  EXPECT_NEAR(joules, 4.0, 0.05);
}

TEST(DaqTest, MeasurementCloseToGroundTruthOnRealisticTape) {
  Daq daq;
  PowerTape tape;
  // Alternate busy/idle segments like an MPEG run.
  for (int i = 0; i < 100; ++i) {
    tape.Set(SimTime::Millis(20 * i), i % 2 == 0 ? 1.43 : 0.74);
  }
  const SimTime end = SimTime::Millis(2000);
  const double measured = daq.EnergyJoules(daq.SampleWindow(tape, SimTime::Zero(), end));
  const double exact = tape.EnergyJoules(SimTime::Zero(), end);
  EXPECT_NEAR(measured, exact, exact * 0.01);
}

TEST(DaqTest, EmptyWindowYieldsNothing) {
  Daq daq;
  const PowerTape tape = ConstantTape(1.0);
  EXPECT_TRUE(daq.SampleWindow(tape, SimTime::Seconds(1), SimTime::Seconds(1)).empty());
  EXPECT_TRUE(daq.SampleWindow(tape, SimTime::Seconds(2), SimTime::Seconds(1)).empty());
  EXPECT_EQ(daq.AverageWatts({}), 0.0);
}

TEST(DaqTest, NoiseDisabledGivesQuantisationOnlyError) {
  DaqConfig config;
  config.noise_lsb = 0.0;
  Daq daq(config);
  const PowerTape tape = ConstantTape(1.0);
  const auto samples = daq.SampleWindow(tape, SimTime::Zero(), SimTime::Millis(100));
  // All samples identical (pure quantisation).
  for (const double s : samples) {
    EXPECT_DOUBLE_EQ(s, samples[0]);
  }
  EXPECT_NEAR(samples[0], 1.0, 0.002);
}

TEST(DaqTest, SixteenBitQuantisationVisible) {
  DaqConfig config;
  config.noise_lsb = 0.0;
  Daq daq(config);
  // Shunt LSB = 2*0.1/65536 V -> current LSB ~152.6 uA -> power LSB ~0.47 mW.
  const PowerTape a = ConstantTape(1.0);
  const PowerTape b = ConstantTape(1.0001);  // less than one LSB away
  const double sa = daq.SampleWindow(a, SimTime::Zero(), SimTime::Millis(1))[0];
  const double sb = daq.SampleWindow(b, SimTime::Zero(), SimTime::Millis(1))[0];
  EXPECT_DOUBLE_EQ(sa, sb);
}

TEST(DaqTest, RepeatedRunsTightConfidenceInterval) {
  // The paper: "we found the 95% confidence interval of the energy to be
  // less than 0.7% of the mean energy."
  PowerTape tape;
  for (int i = 0; i < 50; ++i) {
    tape.Set(SimTime::Millis(40 * i), i % 2 == 0 ? 1.4 : 0.8);
  }
  std::vector<double> energies;
  for (int run = 0; run < 8; ++run) {
    DaqConfig config;
    config.seed = 1000 + static_cast<std::uint64_t>(run);
    Daq daq(config);
    energies.push_back(daq.EnergyJoules(daq.SampleWindow(tape, SimTime::Zero(), SimTime::Seconds(2))));
  }
  const Summary s = Summarize(energies);
  EXPECT_LT(s.ci_percent(), 0.7);
}

// Property sweep: measurement error grows with configured ADC noise but
// stays within the analytic bound (noise averages as 1/sqrt(n) over the
// window, quantisation adds at most one LSB of bias).
class DaqNoisePropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(DaqNoisePropertyTest, AverageErrorBounded) {
  DaqConfig config;
  config.noise_lsb = GetParam();
  config.seed = 77;
  Daq daq(config);
  PowerTape tape;
  tape.Set(SimTime::Zero(), 1.3);
  const auto samples = daq.SampleWindow(tape, SimTime::Zero(), SimTime::Seconds(1));
  const double avg = daq.AverageWatts(samples);
  // Single-sample noise sigma: noise_lsb LSBs on the shunt channel; one LSB
  // of shunt voltage is ~0.47 mW of power.  Averaged over 5000 samples, even
  // a generous 6-sigma bound is tiny; add one LSB for quantisation bias.
  const double per_sample_mw = 0.48 * (GetParam() + 1.0);
  const double bound_w = (6.0 * per_sample_mw / std::sqrt(5000.0) + 0.48) * 1e-3;
  EXPECT_NEAR(avg, 1.3, bound_w) << "noise " << GetParam() << " LSB";
}

TEST_P(DaqNoisePropertyTest, EnergyMatchesAverageTimesTime) {
  DaqConfig config;
  config.noise_lsb = GetParam();
  Daq daq(config);
  PowerTape tape;
  tape.Set(SimTime::Zero(), 0.9);
  const auto samples = daq.SampleWindow(tape, SimTime::Zero(), SimTime::Seconds(2));
  EXPECT_NEAR(daq.EnergyJoules(samples), daq.AverageWatts(samples) * 2.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(NoiseSweep, DaqNoisePropertyTest,
                         ::testing::Values(0.0, 0.5, 1.0, 2.0, 4.0));

TEST(DaqTest, FastPathMatchesFaultPathWhenNothingDrops) {
  // SampleWindow takes a branch-free fast path when no fault injector is
  // bound.  A bound injector whose drop probability is zero must produce the
  // exact same bytes — the fast path is an optimisation, not a behaviour.
  Rng rng(0xFA57);
  PowerTape tape;
  SimTime t = SimTime::Zero();
  for (int i = 0; i < 300; ++i) {
    tape.Set(t, rng.Uniform(0.1, 2.5));
    t += SimTime::Micros(rng.UniformInt(100, 9'000));
  }
  Daq fast;
  FaultPlan plan;  // all probabilities zero: DropSample() never fires
  FaultInjector injector(plan);
  Daq faulted;
  faulted.BindFaults(&injector);
  const auto a = fast.SampleWindow(tape, SimTime::Zero(), t);
  const auto b = faulted.SampleWindow(tape, SimTime::Zero(), t);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "sample " << i;
  }
  EXPECT_EQ(faulted.dropped_samples(), 0u);
}

TEST(DaqTest, ZeroNoiseSamplingMatchesQuantisedTape) {
  // With noise off, each sample is the tape's instantaneous power pushed
  // through the two ADC quantisers — recompute that pipeline per sample with
  // plain WattsAt and demand bitwise equality with the cursor-driven loop.
  Rng rng(0xFA58);
  PowerTape tape;
  SimTime t = SimTime::Zero();
  for (int i = 0; i < 200; ++i) {
    tape.Set(t, rng.Uniform(0.1, 2.5));
    t += SimTime::Micros(rng.UniformInt(100, 9'000));
  }
  DaqConfig config;
  config.noise_lsb = 0.0;
  Daq daq(config);
  const auto samples = daq.SampleWindow(tape, SimTime::Zero(), t);
  const double steps = std::pow(2.0, config.adc_bits);
  const double shunt_lsb = 2.0 * config.shunt_range_volts / steps;
  const double supply_lsb = config.supply_range_volts / steps;
  const double period_s = 1.0 / config.sample_hz;
  ASSERT_FALSE(samples.empty());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const SimTime at = SimTime::Zero() + SimTime::FromSecondsF(i * period_s);
    const double watts = tape.WattsAt(at);
    const double shunt_v =
        std::round(watts / config.supply_volts * config.shunt_ohms / shunt_lsb) * shunt_lsb;
    const double supply_v = std::round(config.supply_volts / supply_lsb) * supply_lsb;
    ASSERT_EQ(samples[i], shunt_v / config.shunt_ohms * supply_v) << "sample " << i;
  }
}

TEST(GpioTriggerTest, LatchesWindowsFromEdges) {
  Gpio gpio;
  GpioTrigger trigger(5);
  trigger.Attach(gpio);
  gpio.Toggle(5, SimTime::Seconds(1));
  EXPECT_TRUE(trigger.open_window_start().has_value());
  gpio.Toggle(5, SimTime::Seconds(4));
  ASSERT_EQ(trigger.windows().size(), 1u);
  EXPECT_EQ(trigger.windows()[0].first, SimTime::Seconds(1));
  EXPECT_EQ(trigger.windows()[0].second, SimTime::Seconds(4));
  EXPECT_FALSE(trigger.open_window_start().has_value());
}

TEST(GpioTriggerTest, IgnoresOtherPins) {
  Gpio gpio;
  GpioTrigger trigger(5);
  trigger.Attach(gpio);
  gpio.Toggle(3, SimTime::Seconds(1));
  EXPECT_FALSE(trigger.open_window_start().has_value());
}

TEST(GpioTriggerTest, MultipleWindows) {
  Gpio gpio;
  GpioTrigger trigger(5);
  trigger.Attach(gpio);
  for (int i = 0; i < 6; ++i) {
    gpio.Toggle(5, SimTime::Seconds(i));
  }
  EXPECT_EQ(trigger.windows().size(), 3u);
}

}  // namespace
}  // namespace dcs
