// Section 2.1's battery experiment: "If the system clock is 206 MHz, a
// typical pair of alkaline batteries will power the system for about 2
// hours; if the system clock is set to 59 MHz, those same batteries will
// last for about 18 hours.  Although the battery lifetime increased by a
// factor of 9, the processor speed was only decreased by a factor of 3.5."
//
// Reproduces the idle-system lifetime across all 11 clock steps with the
// rate-capacity (Peukert) battery model, then demonstrates the
// pulsed-discharge effect (Chiasserini & Rao) the paper also discusses.

#include <cstdio>
#include <iostream>

#include "src/exp/flags.h"
#include "src/exp/report.h"
#include "src/hw/battery.h"
#include "src/hw/power_model.h"

namespace dcs {
namespace {

// The battery-anecdote configuration: the power manager disables the core
// (nap mode) but "the devices remain active" — and the LCD DMA / DRAM
// interface run from the bus clock, so idle power scales with frequency.
// Calibrated so idle power at 206.4 MHz is ~1.03 W and the 206-to-59 power
// ratio is 3.5 (see DESIGN.md).
PowerModelParams BatteryAnecdoteParams() {
  PowerModelParams params;
  params.peripherals_display_off_mw = 1.0;
  params.peripherals_bus_mw_per_mhz = 4.42;
  return params;
}

void LifetimeTable() {
  const PowerModel model(BatteryAnecdoteParams());
  const PeripheralState periph{false, false};
  Battery battery;
  TextTable table({"clock (MHz)", "idle power (W)", "lifetime (h)", "vs 206.4 MHz"});
  const double watts_top =
      model.SystemWatts(ExecState::kNap, ClockTable::MaxStep(), 1.5, periph);
  const double hours_top = battery.LifetimeHoursAtConstantPower(watts_top);
  for (int step = kNumClockSteps - 1; step >= 0; --step) {
    const double watts = model.SystemWatts(ExecState::kNap, step, 1.5, periph);
    const double hours = battery.LifetimeHoursAtConstantPower(watts);
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.1fx", hours / hours_top);
    table.AddRow({TextTable::Fixed(ClockTable::FrequencyMhz(step), 1),
                  TextTable::Fixed(watts, 3), TextTable::Fixed(hours, 1), ratio});
  }
  table.Print(std::cout);
  const double watts_59 = model.SystemWatts(ExecState::kNap, 0, 1.5, periph);
  std::printf("\nPaper shape check: ~2 h at 206 MHz vs ~18 h at 59 MHz — a %.1fx\n"
              "lifetime gain for a %.1fx power reduction (the rate-capacity effect).\n",
              battery.LifetimeHoursAtConstantPower(watts_59) / hours_top,
              watts_top / watts_59);
}

void SimulatedDrainCrossCheck() {
  PrintHeading(std::cout, "Cross-check: integrated drain vs closed-form lifetime");
  const PowerModel model(BatteryAnecdoteParams());
  const PeripheralState periph{false, false};
  TextTable table({"clock (MHz)", "closed form (h)", "integrated (h)", "error"});
  for (const int step : {0, 5, 10}) {
    const double watts = model.SystemWatts(ExecState::kNap, step, 1.5, periph);
    Battery battery;
    const double expected = battery.LifetimeHoursAtConstantPower(watts);
    double hours = 0.0;
    while (!battery.Empty() && hours < 100.0) {
      battery.Drain(watts, SimTime::Seconds(60));
      hours += 1.0 / 60.0;
    }
    char err[32];
    std::snprintf(err, sizeof(err), "%.2f%%", 100.0 * (hours - expected) / expected);
    table.AddRow({TextTable::Fixed(ClockTable::FrequencyMhz(step), 1),
                  TextTable::Fixed(expected, 2), TextTable::Fixed(hours, 2), err});
  }
  table.Print(std::cout);
}

void PulsedDischargeDemo() {
  PrintHeading(std::cout, "Pulsed power (Chiasserini & Rao): bursts + rest vs continuous");
  TextTable table({"discharge pattern", "depth after 1 h active @ 2 W"});
  Battery continuous;
  continuous.Drain(2.0, SimTime::Seconds(3600));
  table.AddRow({"continuous 2 W for 60 min",
                TextTable::Percent(continuous.DepthOfDischarge())});
  for (const int rest_minutes : {1, 4, 9}) {
    Battery pulsed;
    for (int i = 0; i < 60; ++i) {
      pulsed.Drain(2.0, SimTime::Seconds(60));
      pulsed.Drain(0.0, SimTime::Seconds(60 * rest_minutes));
    }
    char label[64];
    std::snprintf(label, sizeof(label), "1 min bursts @ 2 W, %d min rests", rest_minutes);
    table.AddRow({label, TextTable::Percent(pulsed.DepthOfDischarge())});
  }
  table.Print(std::cout);
  std::cout << "Longer recovery periods recover more of the rate-induced loss; the\n"
               "paper notes this matters less than the rate-capacity effect because\n"
               "\"most computer applications place a more constant demand\".\n";
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) {
  dcs::FlagSet().ParseOrExit(argc, argv);  // takes no flags: any argument is an error
  dcs::PrintHeading(std::cout, "Section 2.1 — Battery lifetime vs clock frequency");
  dcs::LifetimeTable();
  dcs::SimulatedDrainCrossCheck();
  dcs::PulsedDischargeDemo();
  return 0;
}
