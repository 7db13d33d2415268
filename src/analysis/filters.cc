#include "src/analysis/filters.h"

#include <cassert>
#include <cmath>

namespace dcs {

std::vector<double> AvgNFilter(std::span<const double> input, int n, double initial) {
  assert(n >= 0);
  std::vector<double> out;
  out.reserve(input.size());
  double w = initial;
  for (const double u : input) {
    w = (n * w + u) / (n + 1);
    out.push_back(w);
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

std::vector<double> DecayingExponential(double lambda, int length) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(length));
  for (int t = 0; t < length; ++t) {
    out.push_back(std::exp(-lambda * t));
  }
  return out;
}

}  // namespace dcs
