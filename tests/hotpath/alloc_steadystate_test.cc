// Allocation steady-state harness: after the first job warms a worker's
// arena, subsequent jobs must not touch the global heap on the simulation
// hot path.  Two layers:
//
//  1. A strict zero-allocation check over the core stack (Simulator, Itsy,
//     Kernel, Daq) built directly against an arena: from kernel start
//     through the run, the DAQ's window and its chunked Measure, jobs after
//     the first perform literally zero heap allocations.
//  2. A sweep-level check through the production SweepRunner path: per-job
//     heap allocations drop after the first job and are *identical* between
//     later jobs (the remaining allocations are result bookkeeping, which
//     identical configs repeat exactly).

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/governor_registry.h"
#include "src/daq/daq.h"
#include "src/exp/device_sim.h"
#include "src/exp/experiment.h"
#include "src/exp/sweep.h"
#include "src/hw/itsy.h"
#include "src/kernel/kernel.h"
#include "src/sim/arena.h"
#include "src/sim/simulator.h"
#include "tests/support/alloc_counter.h"

namespace dcs {
namespace {

TEST(AllocSteadyStateTest, WarmCoreStackRunsHeapFree) {
  if (!testing::AllocCounterAvailable()) {
    GTEST_SKIP() << "alloc counter unavailable under sanitizers";
  }

  Arena arena;
  const SimTime duration = SimTime::Seconds(1);
  std::uint64_t delta[3] = {0, 0, 0};
  for (int job = 0; job < 3; ++job) {
    arena.Reset();

    // Per-job setup (governor and object construction, trace reservation)
    // may allocate; the zero-allocation contract covers the run itself.
    // The dispatch record comes from the registry like production.
    GovernorHandle governor = MakeGovernorDispatch("PAST-peg-peg-93-98");
    ASSERT_NE(governor.governor, nullptr);
    Simulator sim(&arena);
    ItsyConfig itsy_config;
    Itsy itsy(sim, itsy_config, &arena);
    KernelConfig kernel_config;
    Kernel kernel(sim, itsy, kernel_config, &arena);
    kernel.InstallPolicy(governor.dispatch);
    kernel.ReserveTraces(
        static_cast<std::size_t>(duration.nanos() / kernel_config.quantum.nanos()));
    Daq daq(DaqConfig{}, &arena);

    const std::uint64_t before = testing::ThreadAllocCount();
    kernel.Start();
    sim.RunUntil(duration);
    itsy.SyncBattery();
    const std::span<const double> samples =
        daq.SampleWindow(itsy.tape(), SimTime::Nanos(0), duration);
    const double joules = daq.EnergyJoules(samples);
    // Measure over three chunks' worth (the tape's last level holds past
    // the run's end), reusing the window's buffer.
    const Daq::Totals measured = daq.Measure(itsy.tape(), SimTime::Nanos(0), SimTime::Seconds(60));
    delta[job] = testing::ThreadAllocCount() - before;

    EXPECT_GT(kernel.quanta_elapsed(), 0u) << "job " << job << " never ticked";
    EXPECT_GT(joules, 0.0) << "job " << job << " measured no energy";
    EXPECT_GT(measured.joules, joules) << "job " << job;
  }

  // Job 0 may allocate (arena blocks come from the heap); warmed jobs not.
  EXPECT_EQ(delta[1], 0u) << "second job allocated on the hot path";
  EXPECT_EQ(delta[2], 0u) << "third job allocated on the hot path";
}

TEST(AllocSteadyStateTest, SweepWorkerReachesAllocationSteadyState) {
  if (!testing::AllocCounterAvailable()) {
    GTEST_SKIP() << "alloc counter unavailable under sanitizers";
  }

  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = "PAST-peg-peg-93-98";
  config.seed = 5;
  config.duration = SimTime::Seconds(1);
  const std::vector<ExperimentConfig> grid(3, config);

  SweepOptions options;
  options.threads = 1;  // jobs run on this thread, so the counters see them
  SweepRunner runner(options);

  // The count as each job's simulation ends; the stretch from one reading to
  // the next is the runner's bookkeeping for a job plus the next job's run.
  std::vector<std::uint64_t> counts;
  counts.reserve(8);
  SweepJobHooks hooks;
  hooks.execute = [&](const ExperimentConfig& job, int) {
    SweepJobResult slot;
    slot.result = RunExperiment(job);
    counts.push_back(testing::ThreadAllocCount());
    return slot;
  };

  const std::uint64_t base = testing::ThreadAllocCount();
  const std::vector<SweepJobResult> results = runner.Run(grid, hooks);
  ASSERT_EQ(results.size(), 3u);
  for (const SweepJobResult& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
  }
  ASSERT_EQ(counts.size(), 3u);

  const std::uint64_t first = counts[0] - base;
  const std::uint64_t second = counts[1] - counts[0];
  const std::uint64_t third = counts[2] - counts[1];
  // The first job warms the arena (its blocks are heap allocations) and
  // whatever lazy one-time state the stack keeps; later jobs only pay the
  // result-bookkeeping allocations, which identical configs repeat exactly.
  EXPECT_LT(second, first) << "arena warm-up did not reduce per-job allocations";
  EXPECT_EQ(third, second) << "steady-state jobs differ in allocation count";
}

// A full-result job's arena holds the run's buffers and the DAQ's 1 MiB
// chunk, not a sample buffer for the whole window: a 227 s chess job's
// window is 1.13 million readings, 9 MB as one buffer.  On a fresh arena the
// job's capacity was 11.10 MB when Finish sampled the window whole, and is
// 4.13 MB since it measures the window in chunks.
TEST(AllocSteadyStateTest, ChessJobArenaStaysSmall) {
  Arena arena;
  ExperimentConfig config;
  config.app = "chess";
  config.governor = "PAST-peg-peg-93-98";
  config.seed = 1;
  config.arena = &arena;
  const ExperimentResult result = RunExperiment(config);
  EXPECT_GT(result.duration, SimTime::Seconds(200));
  EXPECT_LT(arena.capacity_bytes(), std::size_t{6} << 20);
}

// The fleet worker's inner loop: one DeviceSim cycled through many devices
// by restoring a shared warmup image, forking the RNG streams and running
// the tail.  After the first cycle grows containers to their steady-state
// capacity, a device cycle must be a zero-heap-allocation operation — this
// is what makes snapshot-clone forking memcpy-speed.
void ExpectDeviceCycleHeapFree(ExperimentConfig config, DeviceSim::Reads reads) {
  Arena arena;
  config.seed = 5;
  config.duration = SimTime::Seconds(1);
  config.itsy.battery = BatteryParams{};
  config.arena = &arena;
  if (config.app == "server") {
    // As FleetRunner builds a server cell: arrivals span the horizon.
    config.server.emplace();
    config.server->duration = *config.duration;
  }

  DeviceSim dev(config, reads);
  dev.Start();
  dev.RunUntil(SimTime::Millis(500));
  SnapshotWriter image;
  dev.SaveState(&image);

  std::uint64_t delta[3] = {0, 0, 0};
  for (int cycle = 0; cycle < 3; ++cycle) {
    const std::uint64_t before = testing::ThreadAllocCount();
    SnapshotReader reader(image);
    dev.LoadState(&reader);
    dev.kernel().ForkRngs(static_cast<std::uint64_t>(cycle));
    dev.RunUntil(dev.duration());
    delta[cycle] = testing::ThreadAllocCount() - before;
    ASSERT_TRUE(reader.ok()) << "cycle " << cycle << " failed to restore";
  }

  // Cycle 0 may allocate (containers grow to the tail's high-water mark);
  // warmed cycles must not touch the heap at all.
  EXPECT_EQ(delta[1], 0u) << "second device cycle allocated";
  EXPECT_EQ(delta[2], 0u) << "third device cycle allocated";
}

TEST(AllocSteadyStateTest, FleetDeviceCycleRunsHeapFree) {
  if (!testing::AllocCounterAvailable()) {
    GTEST_SKIP() << "alloc counter unavailable under sanitizers";
  }
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = "PAST-peg-peg-93-98";
  ExpectDeviceCycleHeapFree(config, DeviceSim::Reads::kFullResult);
}

// Every fleet_clone governor on every fleet_clone app, for what a fleet
// device records (fleet totals), what a sweep device records (the full
// result) and what RunExperiment(config) records (the summary), plus the
// governors whose history windows a restore clears and refills (LS, CYCLE,
// cycles<N>, satrate<N>).  Deadline-aware governors read the kernel's
// pending-deadline list every quantum; the sliding-window experts of
// adaptive-vs, those history windows and the server's request queue drain
// and refill: each used to allocate per cycle.  The names are
// std::string so a case prints as its text, not as a load address: the
// discovered test names stay the same from one build to the next.
using DeviceCycleCase = std::tuple<std::string, std::string, DeviceSim::Reads>;

class DeviceCycleHeapFreeTest : public ::testing::TestWithParam<DeviceCycleCase> {};

TEST_P(DeviceCycleHeapFreeTest, WarmCyclesNeverAllocate) {
  if (!testing::AllocCounterAvailable()) {
    GTEST_SKIP() << "alloc counter unavailable under sanitizers";
  }
  ExperimentConfig config;
  config.governor = std::get<0>(GetParam());
  config.app = std::get<1>(GetParam());
  ExpectDeviceCycleHeapFree(config, std::get<2>(GetParam()));
}

std::string DeviceCycleName(const ::testing::TestParamInfo<DeviceCycleCase>& info) {
  const DeviceSim::Reads reads = std::get<2>(info.param);
  std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param) +
                     (reads == DeviceSim::Reads::kFleetTotals ? "_fleet"
                      : reads == DeviceSim::Reads::kFullResult ? "_full"
                                                               : "_summary");
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    FleetGovernors, DeviceCycleHeapFreeTest,
    ::testing::Combine(::testing::Values("fixed-132.7", "pid-vs", "adaptive-vs", "deadline-vs",
                                         "LS-peg-peg-93-98", "CYCLE10-peg-peg-93-98", "cycles4",
                                         "satrate4"),
                       ::testing::Values("mpeg", "web", "server"),
                       ::testing::Values(DeviceSim::Reads::kFleetTotals,
                                         DeviceSim::Reads::kFullResult,
                                         DeviceSim::Reads::kSummary)),
    DeviceCycleName);

}  // namespace
}  // namespace dcs
