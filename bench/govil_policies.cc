// Related work, measured: the policy families of Govil, Chan & Wasserman
// (MobiCom '95), which the paper cites as having "considered a large number
// of algorithms" — but only in trace-driven simulation.  Here they run on
// the simulated Itsy against the real applications, with the same switch
// costs, memory model and inelastic deadlines as everything else.
//
// Policies: FLAT (target-utilization smoothing), LONG_SHORT (3:1 blend of
// short and long windows), CYCLE (periodicity matching), PEAK (narrow-peak
// expectation) — plus the paper's PAST baseline.

#include <cstdio>
#include <iostream>
#include <string>

#include "src/exp/experiment.h"
#include "src/exp/flags.h"
#include "src/exp/report.h"

namespace dcs {
namespace {

void RunApp(const char* app) {
  char heading[64];
  std::snprintf(heading, sizeof(heading), "%s", app);
  PrintHeading(std::cout, heading);
  const char* governors[] = {
      "fixed-206.4",
      "PAST-peg-peg-93-98",
      "flat-75",
      "LS-peg-peg-93-98",
      "CYCLE10-peg-peg-93-98",
      "PEAK-peg-peg-93-98",
  };
  TextTable table({"policy", "energy (J)", "saving vs 206.4", "misses",
                   "worst lateness", "clock chg"});
  double baseline = 0.0;
  for (const char* spec : governors) {
    ExperimentConfig config;
    config.app = app;
    config.governor = spec;
    config.seed = 29;
    config.duration = SimTime::Seconds(40);
    const ExperimentResult result = RunExperiment(config);
    if (baseline == 0.0) {
      baseline = result.energy_joules;
    }
    table.AddRow({result.governor, TextTable::Fixed(result.energy_joules, 2),
                  TextTable::Percent(1.0 - result.energy_joules / baseline),
                  std::to_string(result.deadline_misses),
                  result.worst_lateness.ToString(),
                  std::to_string(result.clock_changes)});
  }
  table.Print(std::cout);
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) {
  dcs::FlagSet().ParseOrExit(argc, argv);  // takes no flags: any argument is an error
  dcs::PrintHeading(std::cout,
                    "Related work — Govil et al.'s policy families on the simulated Itsy");
  for (const char* app : {"mpeg", "web", "chess", "editor"}) {
    dcs::RunApp(app);
  }
  std::cout
      << "\nReading: under real hardware constraints the Govil family lands where\n"
         "the paper's own sweep did.  On the interactive apps every policy\n"
         "converges to the same schedule (the demand is bursty-or-idle, so they\n"
         "all track it).  MPEG separates them: LONG_SHORT and CYCLE inherit\n"
         "AVG_N-style lag and drop frames; PEAK is PAST with extra caution;\n"
         "FLAT — essentially a proportional ondemand — squeezes out ~1 extra\n"
         "point of energy but doubles the worst-case lateness and triples the\n"
         "switch count.  Nothing here escapes the paper's trade-off: without\n"
         "knowing the deadlines, a policy buys energy only by thinning the very\n"
         "margins that keep the user experience intact.\n";
  return 0;
}
