#include "src/analysis/fourier.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/analysis/filters.h"
#include "src/sim/rng.h"
#include "src/workload/synthetic.h"
#include "tests/support/analysis_reference.h"

namespace dcs {
namespace {

using testing::Dft;

TEST(DftTest, ConstantSignalIsDcOnly) {
  const std::vector<double> input(8, 1.0);
  const auto spectrum = Dft(input);
  EXPECT_NEAR(std::abs(spectrum[0]), 8.0, 1e-9);
  for (std::size_t k = 1; k < spectrum.size(); ++k) {
    EXPECT_NEAR(std::abs(spectrum[k]), 0.0, 1e-9);
  }
}

TEST(DftTest, PureToneLandsInOneBin) {
  const std::size_t n = 32;
  std::vector<double> input(n);
  for (std::size_t t = 0; t < n; ++t) {
    input[t] = std::cos(2.0 * M_PI * 4.0 * t / n);
  }
  const auto spectrum = Dft(input);
  EXPECT_NEAR(std::abs(spectrum[4]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(spectrum[5]), 0.0, 1e-9);
}

TEST(FftTest, MatchesDft) {
  Rng rng(3);
  std::vector<double> input(64);
  for (double& x : input) {
    x = rng.NextDouble();
  }
  const auto fft = Fft(input);
  const auto dft = Dft(input);
  ASSERT_EQ(fft.size(), dft.size());
  for (std::size_t k = 0; k < fft.size(); ++k) {
    EXPECT_NEAR(std::abs(fft[k] - dft[k]), 0.0, 1e-9) << k;
  }
}

TEST(FftTest, ParsevalEnergyConservation) {
  Rng rng(11);
  std::vector<double> input(256);
  double time_energy = 0.0;
  for (double& x : input) {
    x = rng.Gaussian(0.0, 1.0);
    time_energy += x * x;
  }
  const auto spectrum = Fft(input);
  double freq_energy = 0.0;
  for (const auto& bin : spectrum) {
    freq_energy += std::norm(bin);
  }
  EXPECT_NEAR(freq_energy / static_cast<double>(input.size()), time_energy, 1e-6);
}

TEST(NextPowerOfTwoTest, Values) {
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(800), 1024u);
}

TEST(DecayingExpFtTest, MatchesClosedForm) {
  // |X(w)| = 1/sqrt(w^2 + lambda^2) — the curve of Figure 6.
  EXPECT_DOUBLE_EQ(DecayingExpFtMagnitude(2.0, 0.0), 0.5);
  EXPECT_NEAR(DecayingExpFtMagnitude(3.0, 4.0), 0.2, 1e-12);
}

TEST(DecayingExpFtTest, AttenuatesButNeverEliminates) {
  // The paper's key qualitative point: higher frequencies are attenuated but
  // the magnitude never reaches zero.
  const double lambda = 1.0;
  double prev = DecayingExpFtMagnitude(lambda, 0.0);
  for (double w = 0.5; w <= 15.0; w += 0.5) {
    const double mag = DecayingExpFtMagnitude(lambda, w);
    EXPECT_LT(mag, prev);
    EXPECT_GT(mag, 0.0);
    prev = mag;
  }
}

TEST(DecayingExpFtTest, SmallerLambdaAttenuatesMore) {
  // "As lambda gets smaller the higher frequencies are attenuated to a
  // greater degree" — relative to the DC gain.
  const double w = 5.0;
  const double small_lambda = 0.5;
  const double large_lambda = 4.0;
  const double rel_small = DecayingExpFtMagnitude(small_lambda, w) /
                           DecayingExpFtMagnitude(small_lambda, 0.0);
  const double rel_large = DecayingExpFtMagnitude(large_lambda, w) /
                           DecayingExpFtMagnitude(large_lambda, 0.0);
  EXPECT_LT(rel_small, rel_large);
}

TEST(DecayingExpFtTest, DiscreteSpectrumTracksContinuousCurve) {
  // Numerically: the FFT magnitude of sampled e^{-lambda t} follows the
  // 1/sqrt(w^2+lambda^2) envelope at low frequencies.
  const double lambda = 0.3;
  const auto samples = DecayingExponential(lambda, 1024);
  const auto spectrum = MagnitudeSpectrum(samples);
  // Compare the ratio of DC to the bin at w = 2*pi*k/N for a few k.
  const double dc = spectrum[0];
  for (const std::size_t k : {4u, 8u, 16u}) {
    const double w = 2.0 * M_PI * static_cast<double>(k) / 1024.0;
    const double expected_ratio =
        DecayingExpFtMagnitude(lambda, w) / DecayingExpFtMagnitude(lambda, 0.0);
    EXPECT_NEAR(spectrum[k] / dc, expected_ratio, 0.05) << k;
  }
}

TEST(MagnitudeSpectrumTest, PadsNonPowerOfTwo) {
  const std::vector<double> input(100, 1.0);
  const auto spectrum = MagnitudeSpectrum(input);
  EXPECT_EQ(spectrum.size(), 65u);  // padded to 128 -> one-sided 0..64
}

TEST(RectangleWaveSpectrumTest, HasStrongHarmonics) {
  // "A rectangular wave has many high frequency components" (section 5.3).
  const auto wave = RectangleWaveSamples(9, 1, 1024);
  const auto spectrum = MagnitudeSpectrum(wave);
  // Fundamental at bin 1024/10 ~= 102 and harmonics at multiples.
  const std::size_t fundamental = 1024 / 10;
  double background = 0.0;
  for (std::size_t k = 5; k < fundamental - 5; ++k) {
    background = std::max(background, spectrum[k]);
  }
  EXPECT_GT(spectrum[fundamental], 3.0 * background);
  EXPECT_GT(spectrum[2 * fundamental], background);
}

}  // namespace
}  // namespace dcs
