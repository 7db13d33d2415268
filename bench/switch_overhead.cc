// Section 5.4's overhead measurements: "we coded a tight loop that switched
// the processor clock as quickly as possible ... Clock scaling took
// approximately 200 microseconds, independent of the starting or target
// speed" and "It takes ~250 microseconds to reduce voltage from 1.5V to
// 1.23V ... Voltage increases were effectively instantaneous."
//
// Reproduces the measurement methodology: a policy that toggles the clock on
// every quantum while the GPIO trigger marks intervals, the measured stall
// per change across many different transitions, the voltage settle curve
// (with its undershoot), and the <2% overhead bound.

#include <cstdio>
#include <iostream>
#include <vector>

#include "src/exp/ascii_plot.h"
#include "src/exp/experiment.h"
#include "src/exp/flags.h"
#include "src/exp/report.h"
#include "src/hw/itsy.h"
#include "src/hw/voltage_regulator.h"
#include "src/kernel/kernel.h"
#include "src/sim/simulator.h"
#include "src/workload/synthetic.h"

namespace dcs {
namespace {

// Switches between two steps on every quantum, like the paper's tight loop.
class TogglePolicy final : public ClockPolicy {
 public:
  TogglePolicy(int a, int b) : a_(a), b_(b) {}
  const char* Name() const override { return "toggle"; }
  std::optional<SpeedRequest> OnQuantum(const UtilizationSample& sample) override {
    SpeedRequest request;
    request.step = sample.step == a_ ? b_ : a_;
    return request;
  }

 private:
  int a_;
  int b_;
};

void MeasureClockSwitches() {
  TextTable table({"transition", "changes", "total stall", "stall per change (us)"});
  const std::pair<int, int> transitions[] = {{0, 10}, {9, 10}, {0, 1}, {4, 7}, {5, 6}};
  for (const auto& [a, b] : transitions) {
    Simulator sim;
    Itsy itsy(sim);
    Kernel kernel(sim, itsy);
    TogglePolicy policy(a, b);
    kernel.InstallPolicy(&policy);
    kernel.AddTask(std::make_unique<ConstantUtilizationWorkload>(1.0));
    kernel.Start();
    sim.RunUntil(SimTime::Seconds(2));
    char transition[48];
    std::snprintf(transition, sizeof(transition), "%.1f <-> %.1f MHz",
                  ClockTable::FrequencyMhz(a), ClockTable::FrequencyMhz(b));
    table.AddRow({transition, std::to_string(itsy.clock_changes()),
                  itsy.total_stall().ToString(),
                  TextTable::Fixed(itsy.total_stall().ToMicrosF() / itsy.clock_changes(), 1)});
  }
  table.Print(std::cout);
  std::cout << "Independent of the starting and target speeds: 200 us per change\n"
               "(11,796 clock periods at 59 MHz; 41,288 at 206.4 MHz).\n";
}

void VoltageSettleCurve() {
  PrintHeading(std::cout, "Voltage rail during a 1.5 -> 1.23 V transition");
  VoltageRegulator regulator;
  regulator.Request(CoreVoltage::kLow, SimTime::Zero());
  std::vector<double> t_us;
  std::vector<double> volts;
  for (int us = 0; us <= 300; us += 2) {
    t_us.push_back(us);
    volts.push_back(regulator.VoltsAt(SimTime::Micros(us)));
  }
  PlotOptions options;
  options.title = "Rail voltage vs time (note the undershoot before settling)";
  options.height = 14;
  options.width = 100;
  options.x_label = "time (us)";
  options.y_label = "volts";
  AsciiPlot(std::cout, t_us, volts, options);
  std::printf("  settle time: %s (downward); upward transitions: instantaneous\n",
              kVoltageDownSettle.ToString().c_str());

  // Upward transition check.
  VoltageRegulator up;
  up.Request(CoreVoltage::kLow, SimTime::Zero());
  up.Request(CoreVoltage::kHigh, SimTime::Millis(1));
  std::printf("  raise at t=1ms: stable immediately? %s\n",
              up.IsStable(SimTime::Millis(1)) ? "yes" : "no");
}

void OverheadBound() {
  PrintHeading(std::cout, "Per-quantum overhead bound (section 5.4's <2% claim)");
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = "PAST-peg-peg-93-98";
  config.seed = 7;
  config.duration = SimTime::Seconds(30);
  const ExperimentResult result = RunExperiment(config);
  std::printf("  MPEG under the best policy: %d clock changes in %.0f s\n",
              result.clock_changes, result.duration.ToSeconds());
  std::printf("  total stall %.3f s = %.2f%% of the run (paper bound: < 2%%)\n",
              result.total_stall.ToSeconds(),
              100.0 * result.total_stall.ToSeconds() / result.duration.ToSeconds());
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) {
  dcs::FlagSet().ParseOrExit(argc, argv);  // takes no flags: any argument is an error
  dcs::PrintHeading(std::cout, "Section 5.4 — Cost of clock and voltage scaling");
  dcs::MeasureClockSwitches();
  dcs::VoltageSettleCurve();
  dcs::OverheadBound();
  return 0;
}
