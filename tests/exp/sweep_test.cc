#include "src/exp/sweep.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/exp/repeat.h"

namespace dcs {
namespace {

ExperimentConfig ShortMpeg(std::uint64_t seed, const std::string& governor = "fixed-206.4") {
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = governor;
  config.seed = seed;
  config.duration = SimTime::Seconds(2);
  return config;
}

// Field-by-field bit equality of the result surface the benches report.
void ExpectIdentical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.governor, b.governor);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.exact_energy_joules, b.exact_energy_joules);
  EXPECT_EQ(a.average_watts, b.average_watts);
  EXPECT_EQ(a.avg_utilization, b.avg_utilization);
  EXPECT_EQ(a.quanta, b.quanta);
  EXPECT_EQ(a.clock_changes, b.clock_changes);
  EXPECT_EQ(a.voltage_transitions, b.voltage_transitions);
  EXPECT_EQ(a.total_stall, b.total_stall);
  EXPECT_EQ(a.step_residency, b.step_residency);
  EXPECT_EQ(a.task_cpu_seconds, b.task_cpu_seconds);
  EXPECT_EQ(a.deadline_events, b.deadline_events);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.worst_lateness, b.worst_lateness);
  const TraceSeries* ua = a.sink.Find("utilization");
  const TraceSeries* ub = b.sink.Find("utilization");
  ASSERT_NE(ua, nullptr);
  ASSERT_NE(ub, nullptr);
  ASSERT_EQ(ua->size(), ub->size());
  for (std::size_t i = 0; i < ua->size(); ++i) {
    EXPECT_EQ(ua->points()[i], ub->points()[i]) << "quantum " << i;
  }
}

TEST(SweepRunnerTest, EmptyGridYieldsNoResults) {
  SweepRunner runner;
  EXPECT_TRUE(runner.Run({}).empty());
  EXPECT_EQ(runner.metrics().jobs, 0);
}

TEST(SweepRunnerTest, EmptyGridResetsMetricsFromPreviousRun) {
  // Regression: an empty grid after a real one must not report the previous
  // call's wall clock, failure count or throughput.
  SweepRunner runner;
  runner.Run({ShortMpeg(1), ShortMpeg(2, "definitely-not-a-spec")});
  ASSERT_GT(runner.metrics().wall_seconds, 0.0);
  ASSERT_EQ(runner.metrics().failed, 1);

  EXPECT_TRUE(runner.Run({}).empty());
  const SweepMetrics& m = runner.metrics();
  EXPECT_EQ(m.jobs, 0);
  EXPECT_EQ(m.failed, 0);
  EXPECT_EQ(m.wall_seconds, 0.0);
  EXPECT_EQ(m.simulated_seconds, 0.0);
  EXPECT_EQ(m.sim_seconds_per_second, 0.0);
}

TEST(SweepRunnerTest, ResultsAreIndexedByJobOrder) {
  const std::vector<ExperimentConfig> configs = {
      ShortMpeg(1, "fixed-206.4"), ShortMpeg(2, "fixed-132.7"),
      ShortMpeg(3, "PAST-peg-peg-93-98")};
  SweepOptions options;
  options.threads = 2;
  SweepRunner runner(options);
  const std::vector<SweepJobResult> jobs = runner.Run(configs);
  ASSERT_EQ(jobs.size(), 3u);
  // Each slot must hold exactly the result a serial RunExperiment of that
  // slot's config produces (ExpectIdentical compares the governor name too,
  // so a swapped slot would show up immediately).
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(jobs[i].ok()) << jobs[i].error;
    ExpectIdentical(*jobs[i].result, RunExperiment(configs[i], ExperimentReads::kFullResult));
  }
}

TEST(SweepRunnerTest, BitIdenticalAcrossThreadCounts) {
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    configs.push_back(ShortMpeg(seed, seed % 2 == 0 ? "PAST-peg-peg-93-98" : "AVG9-one-one-50-70"));
  }
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 4;
  const std::vector<ExperimentResult> a = RunSweep(configs, serial);
  const std::vector<ExperimentResult> b = RunSweep(configs, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ExpectIdentical(a[i], b[i]);
  }
}

TEST(SweepRunnerTest, BadConfigFailsOnlyItsJob) {
  std::vector<ExperimentConfig> configs = {ShortMpeg(1), ShortMpeg(2, "definitely-not-a-spec"),
                                           ShortMpeg(3)};
  SweepOptions options;
  options.threads = 2;
  SweepRunner runner(options);
  const std::vector<SweepJobResult> jobs = runner.Run(configs);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_TRUE(jobs[0].ok());
  EXPECT_FALSE(jobs[1].ok());
  EXPECT_NE(jobs[1].error.find("definitely-not-a-spec"), std::string::npos) << jobs[1].error;
  EXPECT_TRUE(jobs[2].ok());
  EXPECT_EQ(runner.metrics().failed, 1);
}

TEST(SweepRunnerTest, RunSweepThrowsOnFirstFailedJob) {
  const std::vector<ExperimentConfig> configs = {ShortMpeg(1),
                                                 ShortMpeg(2, "definitely-not-a-spec")};
  EXPECT_THROW(RunSweep(configs), std::runtime_error);
}

TEST(SweepRunnerTest, MetricsTrackJobsAndSimulatedSeconds) {
  const std::vector<ExperimentConfig> configs = {ShortMpeg(1), ShortMpeg(2)};
  SweepRunner runner;
  runner.Run(configs);
  const SweepMetrics& m = runner.metrics();
  EXPECT_EQ(m.jobs, 2);
  EXPECT_EQ(m.failed, 0);
  EXPECT_GE(m.threads, 1);
  EXPECT_LE(m.threads, 2);  // never more workers than jobs
  EXPECT_GT(m.wall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(m.simulated_seconds, 4.0);
  EXPECT_GT(m.sim_seconds_per_second, 0.0);
}

TEST(SweepRunnerTest, ThreadsResolveToHardwareWhenUnset) {
  SweepRunner runner;
  EXPECT_GE(runner.threads(), 1);
  SweepOptions options;
  options.threads = 3;
  EXPECT_EQ(SweepRunner(options).threads(), 3);
}

TEST(SweepRunnerTest, RejectsMaxRetriesOutsideItsRange) {
  for (const int bad : {-1, CampaignOptions::kMaxRetries + 1}) {
    SweepOptions options;
    options.campaign.max_retries = bad;
    EXPECT_THROW(SweepRunner{options}, std::invalid_argument) << bad;
  }
  SweepOptions options;
  options.campaign.max_retries = CampaignOptions::kMaxRetries;
  EXPECT_NO_THROW(SweepRunner{options});
}

TEST(RunRepeatedParallelTest, BitIdenticalToSerial) {
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 4;
  const RepeatedResult a = RunRepeated(ShortMpeg(100), 5, serial);
  const RepeatedResult b = RunRepeated(ShortMpeg(100), 5, parallel);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    ExpectIdentical(a.runs[i], b.runs[i]);
  }
  EXPECT_EQ(a.energy.mean, b.energy.mean);
  EXPECT_EQ(a.energy.stddev, b.energy.stddev);
  EXPECT_EQ(a.energy.ci95_half, b.energy.ci95_half);
  EXPECT_EQ(a.total_deadline_misses, b.total_deadline_misses);
  EXPECT_EQ(a.mean_utilization, b.mean_utilization);
  EXPECT_EQ(a.mean_clock_changes, b.mean_clock_changes);
}

TEST(SweepRunnerTest, ParallelSpeedupOnMulticoreHost) {
  // The pool must really spread a grid over its workers.  Asserting on who
  // ran the jobs instead of on wall-clock speedup keeps the check exact on
  // any host, loaded or not.  Every job waits (bounded) until a second
  // worker has shown up, so one fast worker cannot drain the whole grid
  // before the others start.
  std::mutex mutex;
  std::condition_variable cv;
  std::set<std::thread::id> workers;
  SweepJobHooks hooks;
  hooks.execute = [&](const ExperimentConfig& config, int) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      workers.insert(std::this_thread::get_id());
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(30), [&] { return workers.size() >= 2; });
    }
    SweepJobResult slot;
    slot.result.emplace();
    slot.result->duration = *config.duration;
    return slot;
  };
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    configs.push_back(ShortMpeg(seed));
  }
  SweepOptions parallel;
  parallel.threads = 4;
  SweepRunner runner(parallel);
  const std::vector<SweepJobResult> jobs = runner.Run(configs, hooks);

  for (const SweepJobResult& job : jobs) {
    EXPECT_TRUE(job.ok()) << job.error;
  }
  EXPECT_EQ(runner.metrics().threads, 4);
  EXPECT_GE(workers.size(), 2u);
  EXPECT_FALSE(workers.count(std::this_thread::get_id()))
      << "a multi-worker sweep ran a job on the calling thread";
}

}  // namespace
}  // namespace dcs
