#include "src/analysis/filters.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "src/core/predictor.h"
#include "src/workload/synthetic.h"
#include "tests/support/analysis_reference.h"

namespace dcs {
namespace {

using testing::AvgNKernel;
using testing::ConvolveCausal;

TEST(AvgNFilterTest, MatchesPredictorExactly) {
  const auto wave = RectangleWaveSamples(9, 1, 100);
  const auto filtered = AvgNFilter(wave, 3);
  AvgNPredictor predictor(3);
  ASSERT_EQ(filtered.size(), wave.size());
  for (std::size_t i = 0; i < wave.size(); ++i) {
    EXPECT_DOUBLE_EQ(filtered[i], predictor.Update(wave[i]));
  }
}

TEST(AvgNFilterTest, InitialConditionRespected) {
  const std::vector<double> input = {0.0};
  const auto filtered = AvgNFilter(input, 9, /*initial=*/1.0);
  EXPECT_DOUBLE_EQ(filtered[0], 0.9);
}

TEST(AvgNFilterTest, N0IsIdentity) {
  const std::vector<double> input = {0.2, 0.8, 0.5};
  const auto filtered = AvgNFilter(input, 0);
  EXPECT_EQ(filtered, input);
}

TEST(AvgNFilterTest, EquivalentToKernelConvolution) {
  // The recursive form equals convolution with the decaying exponential
  // kernel w_k = (1/(N+1)) (N/(N+1))^k (for zero initial condition).
  const auto wave = RectangleWaveSamples(5, 3, 64);
  const int n = 4;
  const auto recursive = AvgNFilter(wave, n);
  const auto kernel = AvgNKernel(n, 64);
  const auto convolved = ConvolveCausal(wave, kernel);
  ASSERT_EQ(recursive.size(), convolved.size());
  for (std::size_t i = 0; i < recursive.size(); ++i) {
    EXPECT_NEAR(recursive[i], convolved[i], 1e-9) << i;
  }
}

TEST(AvgNKernelTest, WeightsSumTowardOne) {
  const auto kernel = AvgNKernel(9, 400);
  const double sum = std::accumulate(kernel.begin(), kernel.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(AvgNKernelTest, GeometricDecay) {
  const auto kernel = AvgNKernel(4, 10);
  for (std::size_t k = 1; k < kernel.size(); ++k) {
    EXPECT_NEAR(kernel[k] / kernel[k - 1], 0.8, 1e-12);
  }
  EXPECT_DOUBLE_EQ(kernel[0], 0.2);
}

TEST(ConvolveCausalTest, IdentityKernel) {
  const std::vector<double> signal = {1.0, 2.0, 3.0};
  const std::vector<double> kernel = {1.0};
  EXPECT_EQ(ConvolveCausal(signal, kernel), signal);
}

TEST(ConvolveCausalTest, DelayKernel) {
  const std::vector<double> signal = {1.0, 2.0, 3.0};
  const std::vector<double> kernel = {0.0, 1.0};
  const auto out = ConvolveCausal(signal, kernel);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 1.0);
  EXPECT_DOUBLE_EQ(out[2], 2.0);
}

TEST(ConvolveCausalTest, LinearInSignal) {
  const auto wave = RectangleWaveSamples(3, 2, 32);
  std::vector<double> doubled(wave);
  for (double& x : doubled) {
    x *= 2.0;
  }
  const auto kernel = AvgNKernel(5, 32);
  const auto a = ConvolveCausal(wave, kernel);
  const auto b = ConvolveCausal(doubled, kernel);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(b[i], 2.0 * a[i], 1e-12);
  }
}

TEST(DecayingExponentialTest, Shape) {
  const auto exp_samples = DecayingExponential(0.5, 5);
  ASSERT_EQ(exp_samples.size(), 5u);
  EXPECT_DOUBLE_EQ(exp_samples[0], 1.0);
  for (std::size_t i = 1; i < exp_samples.size(); ++i) {
    EXPECT_NEAR(exp_samples[i] / exp_samples[i - 1], std::exp(-0.5), 1e-12);
  }
}

// Property sweep over N: the filter is a contraction into [min, max] of the
// input and lags behind step changes.
class AvgNPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AvgNPropertyTest, OutputWithinInputEnvelope) {
  const int n = GetParam();
  const auto wave = RectangleWaveSamples(7, 3, 300);
  const auto out = AvgNFilter(wave, n);
  for (const double w : out) {
    EXPECT_GE(w, 0.0);
    EXPECT_LE(w, 1.0);
  }
}

TEST_P(AvgNPropertyTest, NeverSettlesOnPeriodicInput) {
  // Section 5.3's theorem-in-practice: for any N, the filtered rectangle
  // wave keeps oscillating (amplitude bounded away from zero).
  const int n = GetParam();
  const auto wave = RectangleWaveSamples(9, 1, 2000);
  const auto out = AvgNFilter(wave, n);
  double lo = 1.0;
  double hi = 0.0;
  for (std::size_t i = 1000; i < out.size(); ++i) {
    lo = std::min(lo, out[i]);
    hi = std::max(hi, out[i]);
  }
  EXPECT_GT(hi - lo, 0.01) << "AVG" << n << " settled, contradicting the paper";
}

INSTANTIATE_TEST_SUITE_P(Sweep, AvgNPropertyTest, ::testing::Range(0, 11));

}  // namespace
}  // namespace dcs
