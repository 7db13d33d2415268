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

std::vector<double> DecayingExponential(double lambda, int length) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(length));
  for (int t = 0; t < length; ++t) {
    out.push_back(std::exp(-lambda * t));
  }
  return out;
}

}  // namespace dcs
