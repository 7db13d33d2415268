// Figure 5: "Simple averaging behavior results in poor policies."
//
// Reproduces the paper's two worked examples for the naive busy-cycle
// averaging policy (4-quantum window, speed = smallest step covering the
// average busy MHz):
//   (a) going idle — the speed collapses quickly because idle quanta add
//       zeros to the average;
//   (b) speeding up — from the floor, busy quanta only add 59 MHz-equivalents
//       each, so the policy crawls (in fact it is pinned at 59 MHz).
// Then demonstrates the same failure live: the policy running in the kernel
// against an idle -> busy step load, and against MPEG.

#include <cstdio>
#include <iostream>

#include "src/core/cycle_count_governor.h"
#include "src/exp/experiment.h"
#include "src/exp/flags.h"
#include "src/exp/report.h"
#include "src/hw/clock_table.h"

namespace dcs {
namespace {

UtilizationSample Sample(double utilization, int step) {
  UtilizationSample s;
  s.utilization = utilization;
  s.step = step;
  return s;
}

void WorkedExample(const char* title, const double* utilizations, int count,
                   int start_step, bool prime_busy) {
  PrintHeading(std::cout, title);
  TextTable table({"quantum", "input (freq/busy)", "avg busy MHz", "chosen speed MHz"});
  CycleCountGovernor governor(4);
  int step = start_step;
  // Prime the window with four quanta matching the starting regime.
  for (int i = 0; i < 4; ++i) {
    governor.OnQuantum(Sample(prime_busy ? 1.0 : 0.0, step));
  }
  for (int i = 0; i < count; ++i) {
    const double u = utilizations[i];
    char input[48];
    std::snprintf(input, sizeof(input), "%.1f/%d", ClockTable::FrequencyMhz(step),
                  u > 0.5 ? 1 : 0);
    const auto request = governor.OnQuantum(Sample(u, step));
    if (request.has_value() && request->step.has_value()) {
      step = *request->step;
    }
    table.AddRow({std::to_string(i + 1), input, TextTable::Fixed(governor.AverageBusyMhz(), 1),
                  TextTable::Fixed(ClockTable::FrequencyMhz(step), 1)});
  }
  table.Print(std::cout);
}

void LiveDemo() {
  PrintHeading(std::cout, "Live: cycles4 policy vs MPEG (the paper's conclusion)");
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = "cycles4";
  config.seed = 42;
  config.duration = SimTime::Seconds(30);
  const ExperimentResult result = RunExperiment(config);
  std::printf("  energy %.2f J, frame misses %lld/%lld, worst lateness %s\n",
              result.energy_joules,
              static_cast<long long>(result.deadline_misses),
              static_cast<long long>(result.deadline_events),
              result.worst_lateness.ToString().c_str());
  std::printf("  -> \"exceptionally poor responsiveness\": the clock collapses to the\n"
              "     floor and can never justify speeding back up.\n");
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) {
  dcs::FlagSet().ParseOrExit(argc, argv);  // takes no flags: any argument is an error
  using namespace dcs;
  // (a) Going to idle: primed busy at 206.4 MHz, then idle quanta.
  const double going_idle[] = {0.0, 0.0, 0.0, 0.0};
  WorkedExample("Figure 5(a) — Going to idle (primed busy @ 206.4 MHz)", going_idle, 4,
                /*start_step=*/10, /*prime_busy=*/true);
  // (b) Speeding up: primed idle at 59 MHz, then fully busy quanta.
  const double speeding_up[] = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  WorkedExample("Figure 5(b) — Speeding up (primed idle @ 59.0 MHz)", speeding_up, 6,
                /*start_step=*/0, /*prime_busy=*/false);
  std::cout << "\nPaper shape check: (a) reaches the floor within ~3 quanta; (b) is\n"
               "pinned — a saturated 59 MHz quantum only ever justifies 59 MHz.\n";
  LiveDemo();
  return 0;
}
