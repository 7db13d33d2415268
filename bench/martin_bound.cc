// Martin's battery-aware lower bound (cited in section 3): "the lower bound
// on clock frequency should be chosen such that the number of computations
// per battery lifetime is maximized."
//
// On an ideal platform (linear power, ideal battery) slower is always
// better per discharge.  With the Itsy's static power residue and Peukert
// battery, the computations-per-discharge curve has an interior maximum —
// running *too* slow wastes the fixed draw.  This bench prints the curve
// for a compute-bound and a memory-bound workload and the resulting
// min-step recommendation, then measures the effect of clamping the best
// policy to that bound.

#include <cstdio>
#include <iostream>

#include "src/core/interval_governor.h"
#include "src/core/martin_bound.h"
#include "src/exp/experiment.h"
#include "src/exp/flags.h"
#include "src/hw/itsy.h"
#include "src/kernel/kernel.h"
#include "src/sim/simulator.h"
#include "src/workload/apps.h"
#include "src/exp/report.h"

namespace dcs {
namespace {

void PrintCurve(const char* label, const MemoryProfile& profile) {
  char heading[96];
  std::snprintf(heading, sizeof(heading), "Computations per discharge — %s", label);
  PrintHeading(std::cout, heading);
  const PowerModel power;
  const Battery battery;
  const PeripheralState peripherals{true, false};
  const auto curve = ComputeMartinCurve(power, battery, profile, peripherals);
  const int best = MartinLowerBoundStep(power, battery, profile, peripherals);

  TextTable table({"step", "MHz", "busy power (W)", "lifetime (h)",
                   "Gcycles/discharge", ""});
  for (const MartinCurvePoint& point : curve) {
    table.AddRow({std::to_string(point.step),
                  TextTable::Fixed(ClockTable::FrequencyMhz(point.step), 1),
                  TextTable::Fixed(point.busy_watts, 3),
                  TextTable::Fixed(point.lifetime_hours, 2),
                  TextTable::Fixed(point.computations_per_discharge / 1e9, 1),
                  point.step == best ? "<- Martin bound" : ""});
  }
  table.Print(std::cout);
}

// Runs 30 s of MPEG under PAST-peg-peg-93/98 with the peg-down floor clamped
// to `min_step`, bypassing the registry (which has no clamp syntax).
void RunClamped(int min_step, TextTable& table) {
  Simulator sim;
  Itsy itsy(sim);
  Kernel kernel(sim, itsy);
  IntervalGovernorConfig governor_config;
  governor_config.thresholds = Thresholds{0.93, 0.98};
  governor_config.min_step = min_step;
  IntervalGovernor governor(std::make_unique<PastPredictor>(), MakeSpeedPolicy("peg"),
                            MakeSpeedPolicy("peg"), governor_config);
  kernel.InstallPolicy(&governor);

  DeadlineMonitor deadlines;
  MpegConfig mpeg;
  mpeg.duration = SimTime::Seconds(30);
  AppBundle bundle = MakeMpegApp(mpeg, &deadlines, 31);
  for (auto& task : bundle.tasks) {
    kernel.AddTask(std::move(task));
  }
  kernel.Start();
  const SimTime end = SimTime::Seconds(32);
  sim.RunUntil(end);

  char label[48];
  std::snprintf(label, sizeof(label), "step %d (%.1f MHz)", min_step,
                ClockTable::FrequencyMhz(min_step));
  table.AddRow({label,
                TextTable::Fixed(itsy.tape().EnergyJoules(SimTime::Zero(), end), 2),
                std::to_string(deadlines.TotalMissed()),
                std::to_string(itsy.clock_changes())});
}

void MeasureClampEffect() {
  PrintHeading(std::cout, "Does the clamp matter in practice? (30 s MPEG)");
  // PAST-peg-peg pegs to the hardware floor on idle quanta; Martin's
  // argument says the floor should be the computations-per-discharge
  // optimum instead.  Compare both floors.
  const PowerModel power;
  const Battery battery;
  const MemoryProfile mpeg_profile{20.0, 8.0};
  const int bound =
      MartinLowerBoundStep(power, battery, mpeg_profile, PeripheralState{true, true});
  std::printf("Martin bound for the MPEG profile: step %d (%.1f MHz)\n\n", bound,
              ClockTable::FrequencyMhz(bound));

  TextTable table({"peg-down floor", "energy (J)", "misses", "clock chg"});
  RunClamped(0, table);
  RunClamped(bound, table);
  table.Print(std::cout);
  std::cout << "(On MPEG the clamp costs a little energy: the idle quanta are spent\n"
               "napping, where slower really is cheaper.  Martin's bound targets the\n"
               "*busy* floor — it pays off for compute-bound batch work that would\n"
               "otherwise crawl at 59 MHz while the fixed draw burns the battery.)\n";
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) {
  dcs::FlagSet().ParseOrExit(argc, argv);  // takes no flags: any argument is an error
  dcs::PrintHeading(std::cout,
                    "Martin (1999) — computations per battery discharge vs clock step");
  dcs::PrintCurve("compute-bound workload", dcs::MemoryProfile{});
  dcs::PrintCurve("memory-bound workload (MPEG profile)", dcs::MemoryProfile{20.0, 8.0});
  dcs::MeasureClampEffect();
  return 0;
}
