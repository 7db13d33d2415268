#include "src/analysis/fourier.h"

#include <cassert>
#include <cmath>

namespace dcs {
namespace {

// In-place iterative Cooley-Tukey on a power-of-two-sized buffer.
void FftInPlace(std::vector<std::complex<double>>& a) {
  const std::size_t n = a.size();
  assert((n & (n - 1)) == 0 && "FFT length must be a power of two");
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) {
      j ^= bit;
    }
    j ^= bit;
    if (i < j) {
      std::swap(a[i], a[j]);
    }
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = -2.0 * M_PI / static_cast<double>(len);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = a[i + k];
        const std::complex<double> v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

}  // namespace

std::vector<std::complex<double>> Fft(std::span<const double> input) {
  std::vector<std::complex<double>> a(input.begin(), input.end());
  FftInPlace(a);
  return a;
}

std::size_t NextPowerOfTwo(std::size_t n) {
  std::size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

double DecayingExpFtMagnitude(double lambda, double omega) {
  return 1.0 / std::sqrt(omega * omega + lambda * lambda);
}

std::vector<double> MagnitudeSpectrum(std::span<const double> input) {
  std::vector<double> padded(input.begin(), input.end());
  padded.resize(NextPowerOfTwo(std::max<std::size_t>(input.size(), 1)), 0.0);
  const auto spectrum = Fft(padded);
  const std::size_t half = spectrum.size() / 2;
  std::vector<double> out;
  out.reserve(half + 1);
  for (std::size_t k = 0; k <= half; ++k) {
    out.push_back(std::abs(spectrum[k]) / static_cast<double>(padded.size()));
  }
  return out;
}

}  // namespace dcs
