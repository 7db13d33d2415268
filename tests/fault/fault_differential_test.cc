// Satellite differential tests: a zero-fault plan must be invisible.
//
// Two layers:
//   1. Component level — the same hardware/kernel stack run twice, once with
//      no injector and once with a zero-probability injector bound to the
//      Itsy, the kernel and the DAQ.  Every observable (power tape energy,
//      DAQ sample vector, recorded series, event counts) must be
//      byte-identical: the zero plan routed *through* the injector may not
//      perturb a single draw or event.
//   2. Experiment level — `faults` specs "", "none" and "seed=123" (a seed
//      with no probabilities is still inactive) all produce identical
//      ExperimentResults across the four app bundles.

#include <ios>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/core/governor_registry.h"
#include "src/daq/daq.h"
#include "src/exp/experiment.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/hw/itsy.h"
#include "src/kernel/kernel.h"
#include "src/sim/simulator.h"
#include "src/workload/apps.h"
#include "src/workload/deadline_monitor.h"
#include "tests/fault/fingerprint.h"

namespace dcs {
namespace {

constexpr std::uint64_t kSeed = 7;

// Runs a 3-second MPEG experiment stack by hand and fingerprints everything
// observable.  With `bind_zero_injector`, a FaultPlan{} injector is bound to
// all three consumers (Itsy, Kernel, Daq) exactly as RunExperiment would
// bind an active one.
std::string RunStack(bool bind_zero_injector) {
  Simulator sim;
  Itsy itsy(sim, ItsyConfig{});
  KernelConfig kernel_config;
  kernel_config.rng_seed ^= kSeed * 0x9e3779b97f4a7c15ULL;
  Kernel kernel(sim, itsy, kernel_config);

  std::string error;
  GovernorHandle governor = MakeGovernorDispatch("PAST-peg-peg-93-98-vs", &error);
  EXPECT_NE(governor.governor, nullptr) << error;
  kernel.InstallPolicy(governor.dispatch);

  std::optional<FaultInjector> injector;
  if (bind_zero_injector) {
    injector.emplace(FaultPlan{}, kSeed);
    itsy.BindFaults(&*injector);
    kernel.BindFaults(&*injector);
  }

  DeadlineMonitor deadlines;
  AppBundle bundle = MakeApp("mpeg", &deadlines, kSeed);
  for (auto& task : bundle.tasks) {
    kernel.AddTask(std::move(task));
  }
  kernel.Start();
  sim.RunUntil(SimTime::Seconds(3));
  itsy.SyncBattery();

  DaqConfig daq_config;
  daq_config.seed ^= kSeed * 0x9e3779b97f4a7c15ULL;
  Daq daq(daq_config);
  if (injector) {
    daq.BindFaults(&*injector);
  }
  const std::span<const double> samples = daq.SampleWindow(itsy.tape(), SimTime::Zero(), sim.Now());

  if (injector) {
    EXPECT_EQ(injector->injected_total(), 0u);
    EXPECT_EQ(daq.dropped_samples(), 0u);
    EXPECT_EQ(kernel.transition_retries(), 0u);
    EXPECT_EQ(itsy.brownouts(), 0);
  }

  std::ostringstream os;
  os << std::hexfloat;
  os << itsy.tape().EnergyJoules(SimTime::Zero(), sim.Now()) << '|'
     << daq.EnergyJoules(samples) << '|' << itsy.clock_changes() << '|'
     << itsy.voltage_transitions() << '|' << itsy.total_stall().nanos() << '|'
     << kernel.quanta_elapsed() << '|' << sim.events_executed() << '|'
     << sim.events_cancelled() << '|' << deadlines.TotalEvents() << '|'
     << deadlines.TotalMissed() << '\n';
  for (const double w : samples) {
    os << w << ',';
  }
  os << '\n';
  for (const char* series : {"utilization", "freq_mhz", "core_volts"}) {
    os << series << ':';
    const TraceSeries* s = kernel.sink().Find(series);
    if (s != nullptr) {
      for (const TracePoint& p : s->points()) {
        os << p.at.nanos() << '@' << p.value << ',';
      }
    }
    os << '\n';
  }
  return os.str();
}

TEST(FaultDifferentialTest, ZeroPlanThroughInjectorMatchesNoInjector) {
  const std::string without = RunStack(/*bind_zero_injector=*/false);
  const std::string with = RunStack(/*bind_zero_injector=*/true);
  EXPECT_EQ(without, with);
}

TEST(FaultDifferentialTest, InactiveFaultSpecsAreEquivalentAcrossApps) {
  for (const char* app : {"mpeg", "web", "chess", "editor"}) {
    ExperimentConfig config;
    config.app = app;
    config.governor = "PAST-peg-peg-93-98";
    config.seed = 11;
    config.duration = SimTime::Seconds(2);

    config.faults = "";
    const std::string unset = Fingerprint(RunExperiment(config, ExperimentReads::kFullResult));
    config.faults = "none";
    const std::string none = Fingerprint(RunExperiment(config, ExperimentReads::kFullResult));
    // A seed alone sets no probabilities: still an inactive plan.
    config.faults = "seed=123";
    const std::string seed_only = Fingerprint(RunExperiment(config, ExperimentReads::kFullResult));

    EXPECT_EQ(unset, none) << app;
    EXPECT_EQ(unset, seed_only) << app;

    const ExperimentResult probe = RunExperiment(config, ExperimentReads::kFullResult);
    EXPECT_FALSE(probe.faults.enabled) << app;
    EXPECT_EQ(probe.faults.injected_total, 0u) << app;
    // No fault.* or invariant metrics may appear on the unfaulted path.
    EXPECT_EQ(probe.metrics.FindCounter("fault.injected_total"), nullptr) << app;
    EXPECT_EQ(probe.metrics.FindCounter("fault.invariant_checks"), nullptr) << app;
  }
}

}  // namespace
}  // namespace dcs
