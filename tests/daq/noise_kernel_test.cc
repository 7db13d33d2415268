// The DAQ channel kernel (src/daq/noise_kernel.h): error bounds of the
// polynomial ln and cos against glibc, the std::round twin, and the exact
// recompute at ADC rounding boundaries.
//
// The batched DAQ is only bit-exact if the margin covers the polynomials'
// real error.  The margin is derived from kLnRelErr and kCosAbsErr, so the
// error tests here pin the measured maxima at least 100x below those bounds.

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
  return std::fabs(LnKernel(u) - ref) / std::fabs(ref);
}

double CosAbsErr(double u) { return std::fabs(Cos2PiKernel(u) - std::cos(2.0 * M_PI * u)); }

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
    worst = std::max(worst, LnRelErr(u));
  }
  EXPECT_LE(worst, kLnRelErr / kHeadroom);
  std::printf("ln kernel: max relative error %.3g (margin assumes %.3g)\n", worst, kLnRelErr);
}

TEST(NoiseKernelTest, Cos2PiErrorFarBelowTheMarginBound) {
  double worst = 0.0;
  Rng rng(0xC0);
  for (int i = 0; i < 2'000'000; ++i) {
    worst = std::max(worst, CosAbsErr(rng.NextDouble()));
  }
  // 4u at the quadrant points 0, 1, 2, 3 and -> 4, and at the half-way
  // points where the quadrant rounding flips, with their neighbours.
  std::vector<double> edges;
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
  std::printf("cos kernel: max absolute error %.3g (margin assumes %.3g)\n", worst,
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

// u2 = 0.25 is a quarter turn: glibc's cos(2*M_PI*0.25) is 6.1e-17 (M_PI is
// not pi), the polynomial's is exactly zero.  With the raw reading on the
// half-LSB boundary at -lsb/2 the polynomial noise leaves t at exactly -0.5
// (code -1), while the reference noise lifts it just above (code -0).  The
// kernel must see the tie, recompute, and return the reference's bits.
TEST(NoiseKernelTest, BoundaryTieTakesTheExactRecompute) {
  const AdcChannel ch = ShuntChannel(1.0);
  ASSERT_NE(std::cos(2.0 * M_PI * 0.25), 0.0);
  ASSERT_EQ(Cos2PiKernel(0.25), 0.0);
  for (const double k : {-1.0, 0.0, 7.0, -300.0}) {
    const double raw = (k + 0.5) * ch.lsb;
    ASSERT_EQ(raw / ch.lsb, k + 0.5);  // t lands exactly on the boundary
    const double u1 = 0.3;
    const double u2 = 0.25;
    // The reference, written out as Rng::Gaussian and ReferenceDaq do.
    const double mag = std::sqrt(-2.0 * std::log(u1));
    const double expected =
        Quantise(raw + (0.0 + ch.sigma * mag * std::cos(2.0 * M_PI * u2)), ch.lsb, ch.lo, ch.hi);
    double out = 0.0;
    EXPECT_EQ(QuantiseChannel(ArrayRaw(&raw), &u1, &u2, &out, 1, ch), 1) << "k = " << k;
    EXPECT_EQ(Bits(out), Bits(expected)) << "k = " << k;
    EXPECT_EQ(Bits(out), Bits(ExactReading(raw, u1, u2, ch))) << "k = " << k;
  }
  // The first case is the one where skipping the recompute changes bits.
  const double raw = -0.5 * ch.lsb;
  const double approx = RoundHalfAway(raw / ch.lsb) * ch.lsb;
  EXPECT_NE(Bits(approx), Bits(ExactReading(raw, 0.3, 0.25, ch)));
}

// The margin term itself, not only the per-sample |t| slack, must cover the
// polynomials' shift.  At 40 LSB of noise and u2 = 0.25 the reference noise
// is 3.8e-15 LSB, the polynomial's zero.  Put t half that shift below the
// -0.5 boundary: the per-sample slack alone would call the code certain
// (-1), while the reference rounds to -0.0.
TEST(NoiseKernelTest, MarginCoversThePolynomialShift) {
  const AdcChannel ch = ShuntChannel(40.0);
  const double u1 = 0.3;
  const double u2 = 0.25;
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double shift = (0.0 + ch.sigma * mag * std::cos(2.0 * M_PI * u2)) / ch.lsb;
  const double raw = (-0.5 - shift / 2.0) * ch.lsb;
  const double t = raw / ch.lsb;
  ASSERT_GT(std::fabs(t + 0.5), std::fabs(t) * kTRelSlack);
  ASSERT_NE(Bits(RoundHalfAway(t) * ch.lsb), Bits(ExactReading(raw, u1, u2, ch)));
  double out = 0.0;
  EXPECT_EQ(QuantiseChannel(ArrayRaw(&raw), &u1, &u2, &out, 1, ch), 1);
  EXPECT_EQ(Bits(out), Bits(ExactReading(raw, u1, u2, ch)));
}

// Boundary placements driven by the real generator: the raw reading is put
// where the kernel's own noise lands t on a half-LSB boundary, and the
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
      const double approx_noise =
          0.0 + ch.sigma * std::sqrt(-2.0 * LnKernel(std::max(u1, 1e-300))) * Cos2PiKernel(u2);
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
      u2[1] = 0.25;  // quarter turns: zero from the polynomial
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
