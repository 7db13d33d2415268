#include "src/hw/battery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/sim/rng.h"
#include "tests/support/image_copy.h"

namespace dcs {
namespace {

// The paper's calibration points (section 2.1): an idle Itsy at 206 MHz
// drains two AAA cells in ~2 h; at 59 MHz the same cells last ~18 h.
constexpr double kIdleWatts206 = 1.029;
constexpr double kIdleWatts59 = kIdleWatts206 / 3.5;

TEST(BatteryTest, StartsFull) {
  Battery battery;
  EXPECT_EQ(battery.DepthOfDischarge(), 0.0);
  EXPECT_FALSE(battery.Empty());
}

TEST(BatteryTest, PaperLifetimeAt206MHz) {
  Battery battery;
  EXPECT_NEAR(battery.LifetimeHoursAtConstantPower(kIdleWatts206), 2.0, 0.1);
}

TEST(BatteryTest, PaperLifetimeAt59MHz) {
  // 9x the lifetime for a 3.5x power reduction — the rate-capacity effect.
  Battery battery;
  EXPECT_NEAR(battery.LifetimeHoursAtConstantPower(kIdleWatts59), 18.0, 1.0);
}

TEST(BatteryTest, LifetimeRatioExceedsPowerRatio) {
  Battery battery;
  const double ratio = battery.LifetimeHoursAtConstantPower(kIdleWatts59) /
                       battery.LifetimeHoursAtConstantPower(kIdleWatts206);
  EXPECT_GT(ratio, 3.5);  // super-linear: the whole point of section 2.1
  EXPECT_NEAR(ratio, 9.0, 0.5);
}

TEST(BatteryTest, DrainIntegratesToClosedFormLifetime) {
  Battery battery;
  const double hours = battery.LifetimeHoursAtConstantPower(kIdleWatts206);
  // Integrate in 1-minute segments until the predicted lifetime.
  const int minutes = static_cast<int>(hours * 60.0);
  for (int i = 0; i < minutes; ++i) {
    battery.Drain(kIdleWatts206, SimTime::Seconds(60));
  }
  EXPECT_NEAR(battery.DepthOfDischarge(), 1.0, 0.02);
}

TEST(BatteryTest, EmptyAfterOverdrain) {
  Battery battery;
  battery.Drain(kIdleWatts206, SimTime::Seconds(3 * 3600));
  EXPECT_TRUE(battery.Empty());
}

TEST(BatteryTest, HigherPowerDrainsDisproportionately) {
  Battery a;
  Battery b;
  a.Drain(1.0, SimTime::Seconds(3600));
  b.Drain(2.0, SimTime::Seconds(1800));  // same energy, higher rate
  EXPECT_GT(b.DepthOfDischarge(), a.DepthOfDischarge());
}

TEST(BatteryTest, ZeroOrNegativeInputsAreIgnored) {
  Battery battery;
  battery.Drain(-1.0, SimTime::Seconds(10));
  battery.Drain(1.0, SimTime::Zero());
  EXPECT_EQ(battery.DepthOfDischarge(), 0.0);
}

TEST(BatteryTest, PulsedDischargeBeatsContinuousHighRate) {
  // Chiasserini & Rao: interspersing high-power bursts with rest periods
  // recovers part of the rate-induced loss.
  Battery pulsed;
  Battery continuous;
  const double burst_watts = 2.0;
  // Continuous: 1 hour at 2 W.
  continuous.Drain(burst_watts, SimTime::Seconds(3600));
  // Pulsed: 60 bursts of 1 minute at 2 W with 4-minute rests (same active
  // energy).
  for (int i = 0; i < 60; ++i) {
    pulsed.Drain(burst_watts, SimTime::Seconds(60));
    pulsed.Drain(0.0, SimTime::Seconds(240));
  }
  EXPECT_LT(pulsed.DepthOfDischarge(), continuous.DepthOfDischarge());
}

TEST(BatteryTest, RecoverablePoolFillsOnHighRate) {
  Battery battery;
  battery.Drain(3.0, SimTime::Seconds(600));
  EXPECT_GT(battery.RecoverablePool(), 0.0);
}

TEST(BatteryTest, RecoveryDrainsPool) {
  Battery battery;
  battery.Drain(3.0, SimTime::Seconds(600));
  const double pool_before = battery.RecoverablePool();
  const double depth_before = battery.DepthOfDischarge();
  battery.Drain(0.0, SimTime::Seconds(3600));
  EXPECT_LT(battery.RecoverablePool(), pool_before);
  EXPECT_LT(battery.DepthOfDischarge(), depth_before);
}

// Reset: a fresh battery's snapshot image loaded into a drained one.
TEST(BatteryTest, ResetRestoresFullCharge) {
  Battery battery;
  battery.Drain(2.0, SimTime::Seconds(3600));
  ASSERT_TRUE(testing::CopyThroughImage(Battery(), battery));
  EXPECT_EQ(battery.DepthOfDischarge(), 0.0);
  EXPECT_EQ(battery.RecoverablePool(), 0.0);
}

TEST(BatteryTest, ZeroPowerLastsForever) {
  Battery battery;
  EXPECT_TRUE(std::isinf(battery.LifetimeHoursAtConstantPower(0.0)));
}

TEST(BatteryTest, IdealBatteryHasLinearLifetime) {
  BatteryParams params;
  params.peukert_exponent = 1.0;
  Battery battery(params);
  const double t1 = battery.LifetimeHoursAtConstantPower(1.0);
  const double t2 = battery.LifetimeHoursAtConstantPower(2.0);
  EXPECT_NEAR(t1 / t2, 2.0, 1e-9);
}


// Reference for the bit-exactness check below: Drain() exactly as first
// written, evaluating the ideal-drain penalty I_ref^(k-1) with std::pow on
// every call.
struct ReferenceBattery {
  BatteryParams params;
  double depth = 0.0;
  double recoverable = 0.0;
  SimTime life;
  bool died = false;
  SimTime died_at;

  void Drain(double watts, SimTime dt) {
    if (dt <= SimTime::Zero() || watts < 0.0) {
      return;
    }
    const SimTime life_before = life;
    const double depth_before = depth;
    life = life + dt;
    const double hours = dt.ToSeconds() / 3600.0;
    const double amps = watts / params.supply_volts;
    if (amps <= 0.0) {
      const double recovered = std::min(recoverable, recoverable * params.recovery_per_hour * hours);
      recoverable -= recovered;
      depth = std::max(0.0, depth - recovered);
      return;
    }
    const double peukert_rate = std::pow(amps, params.peukert_exponent) / params.peukert_capacity;
    const double ideal_rate =
        amps * std::pow(params.reference_current_a, params.peukert_exponent - 1.0) /
        params.peukert_capacity;
    depth += peukert_rate * hours;
    if (!died && depth >= 1.0) {
      died = true;
      const double rise = depth - depth_before;
      const double frac = rise > 0.0 ? std::clamp((1.0 - depth_before) / rise, 0.0, 1.0) : 1.0;
      died_at = life_before + SimTime::FromSecondsF(dt.ToSeconds() * frac);
    }
    if (peukert_rate > ideal_rate) {
      recoverable += params.recoverable_fraction * (peukert_rate - ideal_rate) * hours;
    } else {
      const double recovered = std::min(recoverable, recoverable * params.recovery_per_hour * hours);
      recoverable -= recovered;
      depth = std::max(0.0, depth - recovered);
    }
  }
};

TEST(BatteryTest, DrainIsBitwiseEqualToPerCallPowReference) {
  // Each input applies a per-device capacity jitter midway, the way the
  // fleet layer forks devices (the Peukert memo survives it), then an
  // exponent change (the memo must forget every power it holds).
  //
  // Continuous watts never repeat a current, so every Drain() misses the
  // memo, and once the table is full it computes without storing.
  const auto continuous = [](Rng& rng) {
    return rng.UniformInt(0, 9) == 0 ? 0.0 : rng.Uniform(0.05, 3.0);
  };
  // Fixed levels are revisited in random order, as a fleet device revisits
  // its (step, rail, busy/nap, peripheral) states, so nearly every Drain()
  // is a memo hit.  Two of them are forced into the same memo slot.
  const double volts = BatteryParams{}.supply_volts;
  Rng level_rng(99);
  std::vector<double> levels = {0.0};
  while (levels.size() < 48) {
    levels.push_back(level_rng.Uniform(0.05, 3.0));
  }
  const double base = 0.9;
  double twin = base;
  do {
    twin = std::nextafter(twin, 2.0);
  } while (twin / volts == base / volts ||
           Battery::MemoSlot(twin / volts) != Battery::MemoSlot(base / volts));
  levels.push_back(base);
  levels.push_back(twin);
  const auto fixed = [&levels](Rng& rng) {
    return levels[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int>(levels.size()) - 1))];
  };

  for (const bool fixed_levels : {false, true}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
      Rng rng(seed);
      Battery battery;
      ReferenceBattery ref;
      for (int step = 0; step < 20'000; ++step) {
        if (step == 5'000 || step == 12'000) {
          BatteryParams params = battery.params();
          params.peukert_capacity *= rng.Uniform(0.9, 1.1);
          if (step == 12'000) {
            params.peukert_exponent = rng.Uniform(1.2, 1.9);
          }
          battery.SetParams(params);
          ref.params = params;
        }
        // Some rests (zero watts), currents on both sides of the reference.
        const double watts = fixed_levels ? fixed(rng) : continuous(rng);
        const SimTime dt = SimTime::Micros(rng.UniformInt(1, 2'000'000));
        battery.Drain(watts, dt);
        ref.Drain(watts, dt);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(battery.DepthOfDischarge()),
                  std::bit_cast<std::uint64_t>(ref.depth))
            << "fixed " << fixed_levels << " seed " << seed << " step " << step;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(battery.RecoverablePool()),
                  std::bit_cast<std::uint64_t>(ref.recoverable))
            << "fixed " << fixed_levels << " seed " << seed << " step " << step;
        ASSERT_EQ(battery.Died(), ref.died);
        ASSERT_EQ(battery.DiedAt(), ref.died_at);
      }
      // The run must have crossed empty, so DiedAt() was really compared.
      EXPECT_TRUE(ref.died) << "fixed " << fixed_levels << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace dcs
