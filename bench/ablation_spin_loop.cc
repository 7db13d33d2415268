// Ablation: the MPEG player's spin/sleep pacing heuristic.
//
// The paper blames the player's sub-12 ms spin loop for "wasteful work" the
// kernel cannot distinguish from real demand: "The reduction in energy
// between 206MHz and 132MHz occurs because the application wastes fewer
// cycles in the application idle loop used to meet the frame delays", and
// "once the clock is scaled close to the optimal value to complete the
// necessary work, the work seemingly increases.  The kernel has no method of
// determining that this is wasteful work."
//
// This bench swaps the pacing strategy (spin/sleep hybrid vs sleep-only vs
// spin-only) and measures energy at the two interesting fixed speeds and
// under PAST-peg-peg.

#include <cstdio>
#include <iostream>

#include "src/exp/experiment.h"
#include "src/exp/flags.h"
#include "src/exp/report.h"

namespace dcs {
namespace {

ExperimentResult Run(MpegPacing pacing, const char* governor) {
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = governor;
  config.seed = 42;
  config.duration = SimTime::Seconds(30);
  MpegConfig mpeg;
  mpeg.pacing = pacing;
  config.mpeg = mpeg;
  return RunExperiment(config);
}

const char* PacingName(MpegPacing pacing) {
  switch (pacing) {
    case MpegPacing::kSpinSleep:
      return "spin/sleep (Itsy player)";
    case MpegPacing::kSleepOnly:
      return "sleep-only";
    case MpegPacing::kSpinOnly:
      return "spin-only";
  }
  return "?";
}

void Sweep() {
  TextTable table({"pacing", "governor", "energy (J)", "mean util", "misses",
                   "clock chg"});
  for (const MpegPacing pacing :
       {MpegPacing::kSpinSleep, MpegPacing::kSleepOnly, MpegPacing::kSpinOnly}) {
    for (const char* governor : {"fixed-206.4", "fixed-132.7", "PAST-peg-peg-93-98"}) {
      const ExperimentResult result = Run(pacing, governor);
      table.AddRow({PacingName(pacing), governor,
                    TextTable::Fixed(result.energy_joules, 2),
                    TextTable::Percent(result.avg_utilization),
                    std::to_string(result.deadline_misses),
                    std::to_string(result.clock_changes)});
    }
  }
  table.Print(std::cout);

  const double hybrid_206 = Run(MpegPacing::kSpinSleep, "fixed-206.4").energy_joules;
  const double hybrid_132 = Run(MpegPacing::kSpinSleep, "fixed-132.7").energy_joules;
  const double sleep_206 = Run(MpegPacing::kSleepOnly, "fixed-206.4").energy_joules;
  const double sleep_132 = Run(MpegPacing::kSleepOnly, "fixed-132.7").energy_joules;
  std::printf("\n206.4 -> 132.7 MHz energy saving:  %5.1f%% with the spin loop,"
              "  %5.1f%% without\n",
              100.0 * (1.0 - hybrid_132 / hybrid_206),
              100.0 * (1.0 - sleep_132 / sleep_206));
  std::cout << "\nReading: most of Table 2's gap between 206.4 and 132.7 MHz comes from\n"
               "the spin loop burning full-power cycles while waiting — remove the spin\n"
               "and the constant-speed rows nearly converge.  Spin-only pacing shows\n"
               "the opposite extreme: every governor sees ~100% utilization and the\n"
               "utilization signal becomes useless for prediction.\n";
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) {
  dcs::FlagSet().ParseOrExit(argc, argv);  // takes no flags: any argument is an error
  dcs::PrintHeading(std::cout, "Ablation — the MPEG player's spin/sleep pacing");
  dcs::Sweep();
  return 0;
}
