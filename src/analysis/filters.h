// Pure-function filters for the paper's section 5.3 analysis.
//
// AVG_N is a one-pole IIR filter: W_t = (N * W_{t-1} + U_{t-1}) / (N+1).
// Expanding the recursion shows W_t is the convolution of the input with a
// decaying exponential kernel:
//     W_t = sum_k (1/(N+1)) * (N/(N+1))^k * U_{t-1-k}
// which is why the Fourier-domain argument applies: the kernel's transform
// attenuates but never eliminates high frequencies, so a periodic input
// yields a periodic (oscillating) output.

#ifndef SRC_ANALYSIS_FILTERS_H_
#define SRC_ANALYSIS_FILTERS_H_

#include <span>
#include <vector>

namespace dcs {

// Runs AVG_N over `input` starting from weighted value `initial`; output[i]
// is W after consuming input[0..i].
std::vector<double> AvgNFilter(std::span<const double> input, int n, double initial = 0.0);

// Samples of the continuous decaying exponential x(t) = e^{-lambda t} u(t)
// at unit spacing (Figure 6's time-domain kernel).
std::vector<double> DecayingExponential(double lambda, int length);

}  // namespace dcs

#endif  // SRC_ANALYSIS_FILTERS_H_
