// Figure 7: "Result of AVG3 Filtering on the Processor Utilization for a
// Periodic Workload Over Time."
//
// The workload is the paper's idealized MPEG at its optimal speed: a
// repeating rectangle wave, busy for 9 quanta and idle for 1.  Ideally a
// stable policy started at the right speed would keep the weighted
// utilization inside the hysteresis band forever; instead AVG3's output
// oscillates "over a surprisingly wide range".

#include <cstdio>
#include <iostream>

#include "src/analysis/filters.h"
#include "src/analysis/utilization.h"
#include "src/exp/ascii_plot.h"
#include "src/exp/flags.h"
#include "src/exp/report.h"
#include "src/workload/synthetic.h"

namespace dcs {
namespace {

void PlotFiltered() {
  const auto wave = RectangleWaveSamples(9, 1, 800);
  const auto filtered = AvgNFilter(wave, 3);

  PlotOptions options;
  options.title = "Figure 7: AVG3 weighted utilization on the 9-busy/1-idle wave (800 quanta)";
  options.height = 18;
  options.width = 120;
  options.x_label = "quantum";
  options.y_label = "weighted utilization";
  options.y_min = 0.0;
  options.y_max = 1.0;
  AsciiPlot(std::cout, filtered, options);

  const OscillationStats stats = AnalyzeOscillation(filtered, 100);
  std::printf("  steady-state range: %.3f .. %.3f (amplitude %.3f), period %d quanta\n",
              stats.min, stats.max, stats.amplitude, stats.period);
  std::printf("  -> any hysteresis band inside [%.2f, %.2f] keeps tripping: the clock\n"
              "     cannot settle even though the workload is perfectly periodic.\n",
              stats.min, stats.max);
}

void SweepN() {
  PrintHeading(std::cout, "Oscillation amplitude vs N (same wave)");
  TextTable table({"N", "steady min", "steady max", "amplitude", "period (quanta)",
                   "settles in [0.5,0.7]?"});
  const auto wave = RectangleWaveSamples(9, 1, 3000);
  for (int n = 0; n <= 10; ++n) {
    const auto filtered = AvgNFilter(wave, n);
    const OscillationStats stats = AnalyzeOscillation(filtered, 1000);
    table.AddRow({std::to_string(n), TextTable::Fixed(stats.min, 3),
                  TextTable::Fixed(stats.max, 3), TextTable::Fixed(stats.amplitude, 3),
                  std::to_string(stats.period),
                  SettlesWithin(filtered, 0.5, 0.7, 500) ? "yes" : "no"});
  }
  table.Print(std::cout);
  std::cout << "Larger N shrinks the oscillation but never to zero, and buys that\n"
               "damping with the reaction lag of Table 1.\n";
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) {
  dcs::FlagSet().ParseOrExit(argc, argv);  // takes no flags: any argument is an error
  dcs::PrintHeading(std::cout, "Figure 7 — AVG3 filtering of a periodic workload");
  dcs::PlotFiltered();
  dcs::SweepN();
  return 0;
}
