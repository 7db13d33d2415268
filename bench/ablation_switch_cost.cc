// Ablation: how expensive can clock changes get before aggressive switching
// policies stop paying off?
//
// The paper: "The policy causes many voltage and clock changes, which may
// incur unnecessary overhead; this will be less of a problem as processors
// are better designed to accommodate those changes."  We sweep the PLL
// relock stall from 0 to 5 ms and watch the switch-happy policies
// (PAST-peg-peg and the deadline governor) degrade, while a low-change
// policy barely notices.

#include <cstdio>
#include <iostream>

#include "src/exp/experiment.h"
#include "src/exp/flags.h"
#include "src/exp/report.h"

namespace dcs {
namespace {

void Run() {
  const int stalls_us[] = {0, 50, 200, 500, 1000, 2000, 5000};
  const char* governors[] = {"PAST-peg-peg-93-98", "deadline", "AVG9-one-one-50-70"};

  for (const char* governor : governors) {
    char heading[96];
    std::snprintf(heading, sizeof(heading), "%s vs clock-change cost", governor);
    PrintHeading(std::cout, heading);
    TextTable table({"stall per change", "energy (J)", "misses", "clock chg",
                     "stall share of run"});
    for (const int stall_us : stalls_us) {
      ExperimentConfig config;
      config.app = "mpeg";
      config.governor = governor;
      config.seed = 42;
      config.duration = SimTime::Seconds(30);
      config.itsy.clock_switch_stall = SimTime::Micros(stall_us);
      const ExperimentResult result = RunExperiment(config);
      char stall_label[32];
      std::snprintf(stall_label, sizeof(stall_label), "%d us", stall_us);
      table.AddRow({stall_label, TextTable::Fixed(result.energy_joules, 2),
                    std::to_string(result.deadline_misses),
                    std::to_string(result.clock_changes),
                    TextTable::Percent(result.total_stall.ToSeconds() /
                                       result.duration.ToSeconds())});
    }
    table.Print(std::cout);
  }
  std::cout << "\nReading: at the Itsy's measured 200 us the overhead is negligible\n"
               "(<2%, section 5.4).  As stalls grow, the zero-slack deadline governor\n"
               "is the first to miss (multi-millisecond stalls eat the slack it ran\n"
               "without); PAST-peg-peg degrades gracefully because pegging to the top\n"
               "always leaves margin — and because the stall itself reads as a busy\n"
               "quantum, the policy self-throttles its switching.  AVG9-50/70 is\n"
               "insensitive: it never leaves the top step to begin with.\n";
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) {
  dcs::FlagSet().ParseOrExit(argc, argv);  // takes no flags: any argument is an error
  dcs::PrintHeading(std::cout, "Ablation — clock-change stall cost sweep (30 s MPEG)");
  dcs::Run();
  return 0;
}
