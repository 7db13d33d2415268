// Discrete and analytic Fourier machinery for the paper's stability
// argument (section 5.3, Figures 6 and 7).
//
// The paper treats processor load as a 0/1 signal, models AVG_N as
// convolution with a decaying exponential, and observes in the frequency
// domain that the exponential's transform X(w) = 1/(iw + lambda) only
// *attenuates* high frequencies — so a rectangular (periodic) load keeps
// oscillating after filtering, no matter the N.

#ifndef SRC_ANALYSIS_FOURIER_H_
#define SRC_ANALYSIS_FOURIER_H_

#include <complex>
#include <span>
#include <vector>

namespace dcs {

// Iterative radix-2 FFT; input length must be a power of two.
std::vector<std::complex<double>> Fft(std::span<const double> input);

// Smallest power of two >= n (n >= 1).
std::size_t NextPowerOfTwo(std::size_t n);

// |X(w)| for the continuous transform of e^{-lambda t} u(t):
//     X(w) = 1 / (i w + lambda),  |X(w)| = 1 / sqrt(w^2 + lambda^2).
// This is exactly the curve of the paper's Figure 6.
double DecayingExpFtMagnitude(double lambda, double omega);

// Magnitude spectrum |X[k]| / n for k = 0..n/2 (one-sided).
std::vector<double> MagnitudeSpectrum(std::span<const double> input);

}  // namespace dcs

#endif  // SRC_ANALYSIS_FOURIER_H_
