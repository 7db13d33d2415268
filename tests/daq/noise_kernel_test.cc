// The DAQ channel kernel (src/daq/noise_kernel.h): error bounds of the
// float screens of ln and cos against glibc, the std::round twin, and the
// exact recompute near ADC rounding boundaries.
//
// The batched DAQ is only bit-exact if the margin covers the screens' real
// error.  The margin is derived from kLnRelErr and kCosAbsErr, so the error
// tests here pin the measured maxima at least 100x below those bounds.  The
// boundary tests put readings where only the margin, or only the |t| slack,
// tells the screened code from the reference's.

#include "src/daq/noise_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <vector>

#include "src/sim/rng.h"

namespace dcs {
namespace noise_kernel {
namespace {

constexpr double kHeadroom = 100.0;

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Raw readings from an array, as Daq passes the shunt channel's.
auto ArrayRaw(const double* raw) {
  return [raw](int i) { return raw[i]; };
}

double LnRelErr(double u) {
  const double ref = std::log(u);
  return std::fabs(LnScreen(u) - ref) / std::fabs(ref);
}

double CosAbsErr(double u) { return std::fabs(Cos2PiScreen(u) - std::cos(2.0 * M_PI * u)); }

// The screened magnitude and noise, as QuantiseChannel forms them.
float ScreenedMag(double u1) { return std::sqrt(-2.0f * LnScreen(std::max(u1, 1e-300))); }
double ScreenedNoise(double u1, double u2, const AdcChannel& ch) {
  return 0.0 + ch.sigma * static_cast<double>(ScreenedMag(u1) * Cos2PiScreen(u2));
}

// The reference's noise, as Rng::Gaussian and ReferenceDaq write it.
double ReferenceNoise(double u1, double u2, const AdcChannel& ch) {
  const double mag = std::sqrt(-2.0 * std::log(std::max(u1, 1e-300)));
  return 0.0 + ch.sigma * mag * std::cos(2.0 * M_PI * u2);
}

// The reference quantiser, as tests/support/reference_daq.cc writes it.
double Quantise(double volts, double lsb, double lo, double hi) {
  if (volts < lo) {
    volts = lo;
  }
  if (volts > hi) {
    volts = hi;
  }
  return std::round(volts / lsb) * lsb;
}

// The shunt channel at the paper's 16 bits with `noise_lsb` of noise.
AdcChannel ShuntChannel(double noise_lsb) {
  const double range = 0.1;
  const double lsb = 2.0 * range / 65536.0;
  return AdcChannel{noise_lsb * lsb, -range, range, lsb};
}

// A +-1.5 V channel at 16 bits: lsb = 3 * 2^-16, so every half-LSB
// boundary (k + 0.5) * lsb is a double, and so is (k + 0.5) * lsb / lsb.
AdcChannel ExactStepChannel(double noise_lsb) {
  const double lsb = 3.0 * 0x1p-16;
  return AdcChannel{noise_lsb * lsb, -1.5, 1.5, lsb};
}

// The kernel's pre-round value t for one reading, before any recompute.
double ScreenedT(double raw, double u1, double u2, const AdcChannel& ch) {
  double v = raw + ScreenedNoise(u1, u2, ch);
  v = std::clamp(v, ch.lo, ch.hi);
  return v * (1.0 / ch.lsb);
}

// The reading the kernel would give if it took its screened code.  (The
// kernel rounds half to even; that differs only at ties, which it always
// recomputes.)
double ScreenedReading(double raw, double u1, double u2, const AdcChannel& ch) {
  return RoundHalfAway(ScreenedT(raw, u1, u2, ch)) * ch.lsb;
}

// The margin QuantiseChannel allows this reading for the screen, in LSBs.
double ReadingMargin(double u1, const AdcChannel& ch) {
  return std::fabs(ch.sigma / ch.lsb) * kNoiseErrPerMag * static_cast<double>(ScreenedMag(u1));
}

// Among the first draws of a fixed stream, the u2 whose screened cosine is
// farthest from glibc's: the placement tests below need a visible shift.
double WorstCosDraw() {
  Rng rng(0xC05);
  double worst_u = 0.0;
  double worst = -1.0;
  for (int i = 0; i < 200'000; ++i) {
    const double u = rng.NextDouble();
    if (CosAbsErr(u) > worst) {
      worst = CosAbsErr(u);
      worst_u = u;
    }
  }
  return worst_u;
}

TEST(NoiseKernelTest, LnErrorFarBelowTheMarginBound) {
  double worst = 0.0;
  Rng rng(0x1A);
  // Dense sweep of the draws the DAQ sees: k * 2^-53 on [0, 1).
  for (int i = 0; i < 2'000'000; ++i) {
    const double u = rng.NextDouble();
    if (u >= 1e-300) {
      worst = std::max(worst, LnRelErr(u));
    }
  }
  // Every binade down to the clamp, random mantissas.
  for (int e = 1; e <= 996; ++e) {
    for (int j = 0; j < 200; ++j) {
      worst = std::max(worst, LnRelErr(std::ldexp(1.0 + rng.NextDouble(), -e)));
    }
  }
  // Edges: the clamp value, u -> 1-, the reduction boundary at sqrt(1/2)
  // and its neighbours, exact powers of two.
  std::vector<double> edges = {1e-300, 0x1p-53, 0x1p-52, 0.5, 0.25};
  double below_one = 1.0;
  for (int j = 0; j < 64; ++j) {
    below_one = std::nextafter(below_one, 0.0);
    edges.push_back(below_one);
  }
  for (const double pivot : {std::sqrt(0.5), 1.41421353816986083984375 / 2.0,
                             1.41421353816986083984375 / 4.0}) {
    double lo = pivot;
    double hi = pivot;
    for (int j = 0; j < 64; ++j) {
      edges.push_back(lo = std::nextafter(lo, 0.0));
      edges.push_back(hi = std::nextafter(hi, 1.0));
    }
  }
  for (const double u : edges) {
    ASSERT_LE(LnRelErr(u), kLnRelErr / kHeadroom) << "u = " << u;
    // The magnitude is never zero below 1, so neither is the margin.
    ASSERT_LT(LnScreen(u), 0.0f) << "u = " << u;
    worst = std::max(worst, LnRelErr(u));
  }
  EXPECT_LE(worst, kLnRelErr / kHeadroom);
  std::printf("ln screen: max relative error %.3g (margin assumes %.3g)\n", worst, kLnRelErr);
}

TEST(NoiseKernelTest, Cos2PiErrorFarBelowTheMarginBound) {
  double worst = 0.0;
  Rng rng(0xC0);
  for (int i = 0; i < 2'000'000; ++i) {
    worst = std::max(worst, CosAbsErr(rng.NextDouble()));
  }
  // u at the eighths of a turn, where 1/4 - w passes through 0 and +-1/4 and
  // w switches between u and 1 - u, with their neighbours, and the last
  // draw below 1.
  std::vector<double> edges = {1.0 - 0x1p-53};
  for (int q = 0; q <= 8; ++q) {
    const double pivot = q / 8.0;
    double lo = pivot;
    double hi = pivot;
    if (pivot < 1.0) {
      edges.push_back(pivot);
    }
    for (int j = 0; j < 64; ++j) {
      lo = std::nextafter(lo, 0.0);
      hi = std::nextafter(hi, 2.0);
      if (lo >= 0.0 && lo < 1.0) {
        edges.push_back(lo);
      }
      if (hi < 1.0) {
        edges.push_back(hi);
      }
    }
  }
  for (const double u : edges) {
    ASSERT_LE(CosAbsErr(u), kCosAbsErr / kHeadroom) << "u = " << u;
    worst = std::max(worst, CosAbsErr(u));
  }
  EXPECT_LE(worst, kCosAbsErr / kHeadroom);
  std::printf("cos screen: max absolute error %.3g (margin assumes %.3g)\n", worst,
              kCosAbsErr);
}

TEST(NoiseKernelTest, RoundHalfAwayIsBitIdenticalToStdRound) {
  std::vector<double> inputs = {0.0,
                                0.5,
                                1.5,
                                2.5,
                                0.49999999999999994,
                                0.5000000000000001,
                                1e-310,
                                0x1p51 + 0.5,
                                0x1p52 - 0.5,
                                0x1p52,
                                0x1p52 + 1.0,
                                0x1p53 + 2.0,
                                1e300,
                                std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  Rng rng(0x40);
  for (int i = 0; i < 100'000; ++i) {
    inputs.push_back(rng.Uniform(-70000.0, 70000.0));
    inputs.push_back(std::floor(rng.Uniform(-70000.0, 70000.0)) + 0.5);
  }
  for (const double x : inputs) {
    EXPECT_EQ(Bits(RoundHalfAway(x)), Bits(std::round(x))) << x;
    EXPECT_EQ(Bits(RoundHalfAway(-x)), Bits(std::round(-x))) << -x;
  }
}

// Ties in the reference: the raw reading is placed so that the reference's
// own t lands exactly on a half-LSB boundary, which std::round takes away
// from zero.  The screen's t misses the boundary by the screen's shift, and
// where that puts it on the near side, its code is wrong.  The shift
// (about 1e-7 LSB here) is far above the |t| slack, so only the reading's
// margin sends it to the recompute.
TEST(NoiseKernelTest, BoundaryTieTakesTheExactRecompute) {
  const AdcChannel ch = ExactStepChannel(1.0);
  const double u1 = 0.3;
  const double u2 = WorstCosDraw();
  const double n_ref = ReferenceNoise(u1, u2, ch);
  int wrong_without_margin = 0;
  for (const double k : {-301.0, -2.0, -1.0, 0.0, 1.0, 7.0, 300.0}) {
    // Step raw over the ulps around the placement until the reference's
    // chain, fl(fl(raw + n) / lsb), gives the tie exactly.
    double raw = (k + 0.5) * ch.lsb - n_ref;
    bool tie = false;
    for (int step = 0; step < 64 && !tie; ++step) {
      tie = (raw + n_ref) / ch.lsb == k + 0.5;
      if (!tie) {
        raw = std::nextafter(raw, (raw + n_ref) / ch.lsb < k + 0.5 ? 1.0 : -1.0);
      }
    }
    ASSERT_TRUE(tie) << "k = " << k;
    const double exact = ExactReading(raw, u1, u2, ch);
    ASSERT_EQ(Bits(exact), Bits(std::round(k + 0.5) * ch.lsb)) << "k = " << k;
    // The screen misses the tie by more than the |t| slack, and by less than
    // the reading's margin.
    const double t = ScreenedT(raw, u1, u2, ch);
    const double miss = std::fabs(t - (k + 0.5));
    ASSERT_GT(miss, std::fabs(t) * kTRelSlack) << "k = " << k;
    ASSERT_LT(miss, ReadingMargin(u1, ch)) << "k = " << k;
    if (Bits(ScreenedReading(raw, u1, u2, ch)) != Bits(exact)) {
      ++wrong_without_margin;
    }
    double out = 0.0;
    EXPECT_EQ(QuantiseChannel(ArrayRaw(&raw), &u1, &u2, &out, 1, ch), 1) << "k = " << k;
    EXPECT_EQ(Bits(out), Bits(exact)) << "k = " << k;
  }
  // The screen's shift has one sign, so on one side of zero the screened
  // code is the wrong one: the margin is what saves those readings.
  EXPECT_GE(wrong_without_margin, 3);
}

// The margin term itself, not only the |t| slack, covers the screen's
// shift, and it scales with the reading's own magnitude.  At 40 LSB of noise
// the shift is about 1e-5 LSB.  Put the screen's t half that shift past a
// boundary, on the far side from the reference: the |t| slack alone would
// call the screened code certain, and it is wrong.
TEST(NoiseKernelTest, MarginCoversThePolynomialShift) {
  const AdcChannel ch = ShuntChannel(40.0);
  const double u2 = WorstCosDraw();
  // The largest magnitude (the clamp), a typical one, and a small one.
  for (const double u1 : {0.0, 0.3, 0.9}) {
    const double shift = (ScreenedNoise(u1, u2, ch) - ReferenceNoise(u1, u2, ch)) / ch.lsb;
    ASSERT_NE(shift, 0.0) << "u1 = " << u1;
    for (const double k : {-30000.0, -1.0, 0.0, 5.0, 29000.0}) {
      // t_screen = k + 0.5 + shift / 2, so the reference's t sits about
      // shift / 2 on the other side of k + 0.5.
      const double raw = (k + 0.5 + shift / 2.0) * ch.lsb - ScreenedNoise(u1, u2, ch);
      const double t = ScreenedT(raw, u1, u2, ch);
      const double exact = ExactReading(raw, u1, u2, ch);
      ASSERT_GT(std::fabs(t - (k + 0.5)), std::fabs(t) * kTRelSlack) << u1 << " " << k;
      ASSERT_LT(std::fabs(t - (k + 0.5)), ReadingMargin(u1, ch)) << u1 << " " << k;
      ASSERT_NE(Bits(ScreenedReading(raw, u1, u2, ch)), Bits(exact)) << u1 << " " << k;
      double out = 0.0;
      EXPECT_EQ(QuantiseChannel(ArrayRaw(&raw), &u1, &u2, &out, 1, ch), 1) << u1 << " " << k;
      EXPECT_EQ(Bits(out), Bits(exact)) << u1 << " " << k;
    }
  }
}

// Where the magnitude is tiny (u1 -> 1-), so is the margin, and the |t|
// slack is what covers the chain's own roundings.  The screen moves the
// noise by far less than an ulp of v, but raw + noise can still round to
// neighbouring doubles in the two chains.  The reference's v can be exactly
// the boundary (k + 0.5) * lsb, a tie that
// std::round takes up, while the kernel's v is one ulp below it: its t is
// then an ulp of t under the tie, farther from it than the margin, and its
// code is one too low.  Search the draws for such readings and check each
// takes the recompute.
TEST(NoiseKernelTest, SlackCoversTheChainRoundings) {
  const AdcChannel ch = ExactStepChannel(4.0);
  const double lsb = ch.lsb;
  const double u1 = 1.0 - 0x1p-53;  // mag = 2^-26
  ASSERT_EQ(ScreenedMag(u1), 0x1p-26f);
  const double k = 29000.0;
  const double boundary = (k + 0.5) * lsb;
  ASSERT_EQ(boundary / lsb, k + 0.5);
  Rng rng(0x51AC);
  int found = 0;
  for (int i = 0; i < 400'000 && found < 4; ++i) {
    const double u2 = rng.NextDouble();
    const double n_ref = ReferenceNoise(u1, u2, ch);
    const double n_screen = ScreenedNoise(u1, u2, ch);
    double raw = std::nextafter(std::nextafter(boundary - n_ref, 0.0), 0.0);
    for (int j = 0; j < 5; ++j, raw = std::nextafter(raw, 2.0)) {
      if (raw + n_ref != boundary || raw + n_screen >= boundary) {
        continue;
      }
      const double exact = ExactReading(raw, u1, u2, ch);
      ASSERT_EQ(Bits(exact), Bits((k + 1.0) * lsb)) << "u2 = " << u2;
      ASSERT_EQ(Bits(ScreenedReading(raw, u1, u2, ch)), Bits(k * lsb)) << "u2 = " << u2;
      const double t = ScreenedT(raw, u1, u2, ch);
      ASSERT_GT(std::fabs(t - (k + 0.5)), ReadingMargin(u1, ch)) << "u2 = " << u2;
      double out = 0.0;
      EXPECT_EQ(QuantiseChannel(ArrayRaw(&raw), &u1, &u2, &out, 1, ch), 1) << "u2 = " << u2;
      EXPECT_EQ(Bits(out), Bits(exact)) << "u2 = " << u2;
      ++found;
    }
  }
  EXPECT_EQ(found, 4);
}

// A screened ln at or above zero.  No draw reaches it (NextDouble < 1, and
// the screen is below zero there), but the kernel must not trust it: above
// zero the magnitude is NaN and the reading takes the recompute, whose
// result (NaN here, as in the reference) is the reference's bit for bit.  At
// u1 = 1 both sides' noise is exactly zero, and the screened code stands.
TEST(NoiseKernelTest, ScreenLnAtOrAboveZeroTakesTheRecompute) {
  const AdcChannel ch = ShuntChannel(1.0);
  const double u2 = 0.1;
  const double raw = 123.25 * ch.lsb;
  const double above = std::nextafter(1.0, 2.0);
  ASSERT_GT(LnScreen(above), 0.0f);
  double out = 0.0;
  EXPECT_EQ(QuantiseChannel(ArrayRaw(&raw), &above, &u2, &out, 1, ch), 1);
  EXPECT_TRUE(std::isnan(out));
  EXPECT_EQ(Bits(out), Bits(ExactReading(raw, above, u2, ch)));
  const double one = 1.0;
  ASSERT_EQ(LnScreen(one), 0.0f);
  EXPECT_EQ(QuantiseChannel(ArrayRaw(&raw), &one, &u2, &out, 1, ch), 0);
  EXPECT_EQ(Bits(out), Bits(ExactReading(raw, one, u2, ch)));
}

// Boundary placements driven by the real generator: the raw reading is put
// where the kernel's screened noise lands t on a half-LSB boundary, and the
// expected reading uses Rng::Gaussian itself on an identically seeded
// generator.
TEST(NoiseKernelTest, BoundaryTieMatchesRngGaussianBitForBit) {
  for (const double noise_lsb : {0.5, 1.0, 3.0, 40.0}) {
    const AdcChannel ch = ShuntChannel(noise_lsb);
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      Rng draws(seed);
      Rng reference(seed);
      const double u1 = draws.NextDouble();
      const double u2 = draws.NextDouble();
      const double approx_noise = ScreenedNoise(u1, u2, ch);
      const double k = static_cast<double>(static_cast<std::int64_t>(seed % 61) - 30);
      const double raw = (k + 0.5) * ch.lsb - approx_noise;
      const double expected =
          Quantise(raw + reference.Gaussian(0.0, ch.sigma), ch.lsb, ch.lo, ch.hi);
      double out = 0.0;
      EXPECT_EQ(QuantiseChannel(ArrayRaw(&raw), &u1, &u2, &out, 1, ch), 1)
          << "noise " << noise_lsb << " seed " << seed;
      EXPECT_EQ(Bits(out), Bits(expected)) << "noise " << noise_lsb << " seed " << seed;
    }
  }
}

// A dense random sweep through the kernel, with raw readings spread over the
// whole ADC range (clamps included) and a share placed within a few ULP of
// half-LSB boundaries: every reading must equal the reference bit for bit.
TEST(NoiseKernelTest, ChannelMatchesReferenceOnRandomAndNearBoundaryInputs) {
  constexpr int kN = 4096;
  std::vector<double> raw(kN), u1(kN), u2(kN), out(kN);
  Rng rng(0xB0B);
  int recomputed = 0;
  std::int64_t readings = 0;
  for (const double noise_lsb : {0.0, 0.5, 1.0, 3.0, 40.0}) {
    const AdcChannel ch = ShuntChannel(noise_lsb);
    for (int block = 0; block < 16; ++block) {
      for (int i = 0; i < kN; ++i) {
        u1[i] = rng.NextDouble();
        u2[i] = rng.NextDouble();
        if (i % 4 == 0) {
          // Just off a boundary: the noise decides the code.
          const double k = std::floor(rng.Uniform(-40000.0, 40000.0));
          raw[i] = std::nextafter((k + 0.5) * ch.lsb, rng.NextDouble() < 0.5 ? 0.0 : 1.0);
        } else {
          raw[i] = rng.Uniform(-0.11, 0.11);
        }
      }
      u1[0] = 0.0;   // clamped to 1e-300: the largest magnitude
      u2[1] = 0.25;  // quarter turns: zero from the screen
      u2[2] = 0.75;
      recomputed += QuantiseChannel(ArrayRaw(raw.data()), u1.data(), u2.data(), out.data(), kN, ch);
      readings += kN;
      for (int i = 0; i < kN; ++i) {
        const double expected = noise_lsb == 0.0
                                    ? Quantise(raw[i], ch.lsb, ch.lo, ch.hi)
                                    : ExactReading(raw[i], u1[i], u2[i], ch);
        ASSERT_EQ(Bits(out[i]), Bits(expected))
            << "noise " << noise_lsb << " block " << block << " i " << i;
      }
    }
  }
  std::printf("channel kernel: %d of %lld readings took the exact recompute\n", recomputed,
              static_cast<long long>(readings));
}

// A constant raw reading (the supply rail) goes through the same kernel.
TEST(NoiseKernelTest, ConstantRawChannelMatchesReference) {
  constexpr int kN = 2048;
  const double rail = 3.1;
  const double lsb = 5.0 / 65536.0;
  const AdcChannel ch{1.0 * lsb, 0.0, 5.0, lsb};
  std::vector<double> u1(kN), u2(kN), out(kN);
  Rng rng(0x5);
  for (int i = 0; i < kN; ++i) {
    u1[i] = rng.NextDouble();
    u2[i] = rng.NextDouble();
  }
  QuantiseChannel([rail](int) { return rail; }, u1.data(), u2.data(), out.data(), kN, ch);
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(Bits(out[i]), Bits(ExactReading(rail, u1[i], u2[i], ch))) << i;
  }
}

}  // namespace
}  // namespace noise_kernel
}  // namespace dcs
