#include "tests/support/analysis_reference.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace dcs::testing {

std::vector<std::complex<double>> Dft(std::span<const double> input) {
  const std::size_t n = input.size();
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc(0.0, 0.0);
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * M_PI * static_cast<double>(k) * static_cast<double>(t) /
                           static_cast<double>(n);
      acc += input[t] * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

std::vector<double> AvgNKernel(int n, int length) {
  assert(n >= 0 && length >= 0);
  std::vector<double> kernel;
  kernel.reserve(static_cast<std::size_t>(length));
  const double base = static_cast<double>(n) / (n + 1);
  double w = 1.0 / (n + 1);
  for (int k = 0; k < length; ++k) {
    kernel.push_back(w);
    w *= base;
  }
  return kernel;
}

std::vector<double> ConvolveCausal(std::span<const double> signal,
                                   std::span<const double> kernel) {
  std::vector<double> out(signal.size(), 0.0);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    const std::size_t reach = std::min(i + 1, kernel.size());
    double acc = 0.0;
    for (std::size_t k = 0; k < reach; ++k) {
      acc += kernel[k] * signal[i - k];
    }
    out[i] = acc;
  }
  return out;
}

}  // namespace dcs::testing
