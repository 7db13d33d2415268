// Slow, obviously-correct forms of the analysis layer's transforms, which
// the tests compare the production ones against.

#ifndef TESTS_SUPPORT_ANALYSIS_REFERENCE_H_
#define TESTS_SUPPORT_ANALYSIS_REFERENCE_H_

#include <complex>
#include <span>
#include <vector>

namespace dcs::testing {

// O(n^2) DFT: X[k] = sum_t x[t] e^{-2 pi i k t / n}.  The reference for Fft.
std::vector<std::complex<double>> Dft(std::span<const double> input);

// The explicit AVG_N convolution weights w_k = (1/(N+1)) * (N/(N+1))^k for
// k = 0..length-1 (most recent sample first).  Expanding AVG_N's recursion
// shows W_t is the input convolved with them; the reference for AvgNFilter.
std::vector<double> AvgNKernel(int n, int length);

// Full discrete convolution of `signal` with `kernel` (causal: output[i]
// uses signal[i], signal[i-1], ...).  Output has signal.size() samples.
std::vector<double> ConvolveCausal(std::span<const double> signal,
                                   std::span<const double> kernel);

}  // namespace dcs::testing

#endif  // TESTS_SUPPORT_ANALYSIS_REFERENCE_H_
