// Figure 6: the Fourier transform magnitude of a decaying exponential,
// |X(w)| = 1 / sqrt(w^2 + lambda^2) — the frequency response of the AVG_N
// smoothing kernel.  "The transform attenuates, but does not eliminate,
// higher frequency elements.  If the input signal oscillates, the output
// will oscillate as well."
//
// Prints the analytic curve over w = 0..15 (the paper's axis range),
// cross-checks it against an FFT of the sampled kernel, and tabulates the
// attenuation at the rectangle wave's fundamental for several N.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "src/analysis/filters.h"
#include "src/analysis/fourier.h"
#include "src/exp/ascii_plot.h"
#include "src/exp/flags.h"
#include "src/exp/report.h"

namespace dcs {
namespace {

void PlotAnalyticCurve(double lambda) {
  std::vector<double> omega;
  std::vector<double> magnitude;
  for (double w = 0.0; w <= 15.0; w += 0.1) {
    omega.push_back(w);
    magnitude.push_back(DecayingExpFtMagnitude(lambda, w));
  }
  char title[128];
  std::snprintf(title, sizeof(title),
                "Figure 6: |X(w)| = 1/sqrt(w^2 + lambda^2), lambda = %.2f", lambda);
  PlotOptions options;
  options.title = title;
  options.height = 16;
  options.width = 110;
  options.x_label = "omega";
  options.y_label = "|X(omega)|";
  AsciiPlot(std::cout, omega, magnitude, options);
}

void CrossCheckAgainstFft(double lambda) {
  PrintHeading(std::cout, "Cross-check: FFT of sampled e^{-lambda t} vs closed form");
  const int n = 4096;
  const auto samples = DecayingExponential(lambda, n);
  const auto spectrum = MagnitudeSpectrum(samples);
  TextTable table({"omega", "analytic |X|/|X(0)|", "FFT |X|/|X(0)|", "abs error"});
  const double dc_analytic = DecayingExpFtMagnitude(lambda, 0.0);
  for (const int k : {1, 2, 4, 8, 16, 32, 64}) {
    const double w = 2.0 * M_PI * k / n;
    const double analytic = DecayingExpFtMagnitude(lambda, w) / dc_analytic;
    const double fft = spectrum[static_cast<std::size_t>(k)] / spectrum[0];
    table.AddRow({TextTable::Fixed(w, 4), TextTable::Fixed(analytic, 4),
                  TextTable::Fixed(fft, 4), TextTable::Fixed(std::abs(analytic - fft), 5)});
  }
  table.Print(std::cout);
}

void AttenuationByN() {
  PrintHeading(std::cout,
               "Attenuation of the 9-busy/1-idle wave's fundamental by AVG_N");
  // AVG_N's kernel decays as (N/(N+1))^k: effective lambda = ln((N+1)/N).
  TextTable table({"N", "kernel lambda", "gain at fundamental (w=2pi/10)",
                   "relative to DC"});
  const double w0 = 2.0 * M_PI / 10.0;
  for (int n = 1; n <= 10; ++n) {
    const double lambda = std::log((n + 1.0) / n);
    const double gain = DecayingExpFtMagnitude(lambda, w0);
    const double dc = DecayingExpFtMagnitude(lambda, 0.0);
    table.AddRow({std::to_string(n), TextTable::Fixed(lambda, 4), TextTable::Fixed(gain, 3),
                  TextTable::Percent(gain / dc)});
  }
  table.Print(std::cout);
  std::cout << "Attenuated, never eliminated: the residual gain is why AVG_N's output\n"
               "oscillates for every N (Figure 7 / section 5.3).\n";
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) {
  dcs::FlagSet().ParseOrExit(argc, argv);  // takes no flags: any argument is an error
  dcs::PrintHeading(std::cout, "Figure 6 — Fourier Transform of a Decaying Exponential");
  dcs::PlotAnalyticCurve(3.33);  // DC value ~0.3, matching the paper's y-axis
  dcs::CrossCheckAgainstFft(0.05);
  dcs::AttenuationByN();
  return 0;
}
