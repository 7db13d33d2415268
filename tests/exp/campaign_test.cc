#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/exp/journal.h"
#include "src/exp/sweep.h"
#include "src/sim/simulator.h"
#include "tests/fault/fingerprint.h"

namespace dcs {
namespace {

namespace fs = std::filesystem;

ExperimentConfig ShortMpeg(std::uint64_t seed, const std::string& governor = "fixed-206.4") {
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = governor;
  config.seed = seed;
  config.duration = SimTime::Seconds(2);
  return config;
}

std::vector<std::string> Fingerprints(const std::vector<SweepJobResult>& jobs) {
  std::vector<std::string> fps;
  for (const SweepJobResult& job : jobs) {
    fps.push_back(job.ok() ? Fingerprint(*job.result) : "error:" + job.error);
  }
  return fps;
}

class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("dcs_campaign_") + info->name() + "_" +
            std::to_string(static_cast<long>(::getpid())));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    journal_ = (dir_ / "campaign.journal").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  SweepOptions ResumeOptions(int threads = 2) const {
    SweepOptions options;
    options.threads = threads;
    options.campaign.resume = journal_;
    return options;
  }

  fs::path dir_;
  std::string journal_;
};

TEST_F(CampaignTest, SecondRunReplaysEverySlotByteIdentically) {
  const std::vector<ExperimentConfig> grid = {ShortMpeg(1), ShortMpeg(2, "PAST-peg-peg-93-98"),
                                              ShortMpeg(3, "AVG9-one-one-50-70")};
  SweepRunner first(ResumeOptions());
  const auto first_jobs = first.Run(grid);
  EXPECT_EQ(first.metrics().executed(), 3);
  EXPECT_EQ(first.metrics().replayed, 0);

  SweepRunner second(ResumeOptions());
  const auto second_jobs = second.Run(grid);
  EXPECT_EQ(second.metrics().executed(), 0);
  EXPECT_EQ(second.metrics().replayed, 3);
  // Replayed slots must be indistinguishable from computed ones: same
  // hexfloat fingerprint over every reported number and series.
  EXPECT_EQ(Fingerprints(second_jobs), Fingerprints(first_jobs));
}

TEST_F(CampaignTest, ResumeIsByteIdenticalAcrossThreadCounts) {
  std::vector<ExperimentConfig> grid;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    grid.push_back(ShortMpeg(seed, seed % 2 == 0 ? "PAST-peg-peg-93-98" : "fixed-132.7"));
  }
  // Journal written serially, resumed with four workers — and vice versa a
  // fresh four-worker campaign must agree with both.
  SweepRunner serial(ResumeOptions(1));
  const auto serial_jobs = serial.Run(grid);
  SweepRunner resumed(ResumeOptions(4));
  const auto resumed_jobs = resumed.Run(grid);
  EXPECT_EQ(resumed.metrics().replayed, 5);

  SweepOptions fresh_options;
  fresh_options.threads = 4;
  fresh_options.campaign.resume = (dir_ / "fresh.journal").string();
  SweepRunner fresh(fresh_options);
  const auto fresh_jobs = fresh.Run(grid);
  EXPECT_EQ(fresh.metrics().executed(), 5);

  EXPECT_EQ(Fingerprints(resumed_jobs), Fingerprints(serial_jobs));
  EXPECT_EQ(Fingerprints(fresh_jobs), Fingerprints(serial_jobs));
}

TEST_F(CampaignTest, PartialJournalRunsOnlyTheRemainder) {
  const std::vector<ExperimentConfig> grid = {ShortMpeg(1), ShortMpeg(2), ShortMpeg(3)};
  // Seed the journal with a completed campaign over a one-job prefix...
  // no — the grid fingerprint must match, so instead journal two of three
  // slots by hand.
  SweepRunner full(ResumeOptions());
  const auto full_jobs = full.Run(grid);

  // Rewrite the journal holding only slots 0 and 2.
  const JournalReadResult complete = ReadJournal(journal_);
  ASSERT_TRUE(complete.readable);
  std::string error;
  auto writer = JournalWriter::Create(journal_, &error);
  ASSERT_NE(writer, nullptr) << error;
  ASSERT_TRUE(writer->AppendHeader(complete.segments[0].header, &error)) << error;
  for (const JournalRecord& record : complete.segments[0].records) {
    if (record.slot != 1) {
      ASSERT_TRUE(writer->AppendRecord(record, &error)) << error;
    }
  }
  writer.reset();

  SweepRunner partial(ResumeOptions());
  const auto partial_jobs = partial.Run(grid);
  EXPECT_EQ(partial.metrics().replayed, 2);
  EXPECT_EQ(partial.metrics().executed(), 1);
  EXPECT_EQ(Fingerprints(partial_jobs), Fingerprints(full_jobs));
}

TEST_F(CampaignTest, FingerprintMismatchForcesAFreshRun) {
  const std::vector<ExperimentConfig> grid = {ShortMpeg(1), ShortMpeg(2)};
  SweepRunner first(ResumeOptions());
  first.Run(grid);

  // Same journal path, different grid: nothing may replay.
  const std::vector<ExperimentConfig> other = {ShortMpeg(7), ShortMpeg(8)};
  SweepRunner second(ResumeOptions());
  const auto jobs = second.Run(other);
  EXPECT_EQ(second.metrics().replayed, 0);
  EXPECT_TRUE(second.metrics().journal_mismatch);
  EXPECT_EQ(second.metrics().executed(), 2);
  ASSERT_TRUE(jobs[0].ok());
  EXPECT_EQ(Fingerprint(*jobs[0].result), Fingerprint(RunExperiment(other[0])));
}

// The watchdog's token reaches the simulation: a job whose token is set
// stops with CancelledError, which the runner reports as a watchdog timeout.
TEST_F(CampaignTest, CancelTokenStopsTheSimulation) {
  std::atomic<bool> cancel{true};
  ExperimentConfig config = ShortMpeg(1);
  config.cancel = &cancel;
  EXPECT_THROW(RunExperiment(config), CancelledError);
}

TEST_F(CampaignTest, HangingJobIsQuarantinedWhileOthersSucceed) {
  // Slot 1 hangs until the watchdog cancels it: its job blocks on the cancel
  // token, so nothing races a long simulation against the budget.  The wait
  // is bounded, so a watchdog that never fires fails the attempt with another
  // error (and the test) instead of hanging it.  The healthy slots run a 2 s
  // MPEG clip in under 10 ms of wall time, over 100x under the 1 s budget.
  const std::vector<ExperimentConfig> grid = {ShortMpeg(1), ShortMpeg(2), ShortMpeg(3)};
  SweepJobHooks hooks;
  hooks.execute = [](const ExperimentConfig& config, int index) {
    SweepJobResult slot;
    if (index != 1) {
      slot.result = RunExperiment(config);
      return slot;
    }
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (config.cancel == nullptr || !config.cancel->load()) {
      if (std::chrono::steady_clock::now() > give_up) {
        slot.error = "the watchdog never cancelled the hanging job";
        return slot;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw CancelledError("cancelled while blocked");
  };

  SweepOptions options;
  options.threads = 2;
  options.campaign.job_timeout = 1.0;
  options.campaign.max_retries = 1;
  options.campaign.quarantine_out = (dir_ / "quarantine.json").string();
  SweepRunner runner(options);
  const auto jobs = runner.Run(grid, hooks);

  ASSERT_TRUE(jobs[0].ok()) << jobs[0].error;
  ASSERT_TRUE(jobs[2].ok()) << jobs[2].error;
  ASSERT_FALSE(jobs[1].ok());
  EXPECT_NE(jobs[1].error.find("watchdog timeout"), std::string::npos) << jobs[1].error;

  ASSERT_EQ(runner.metrics().quarantined.size(), 1u);
  const QuarantineEntry& entry = runner.metrics().quarantined[0];
  EXPECT_EQ(entry.slot, 1);
  EXPECT_EQ(entry.attempts, 2);  // first attempt + one retry, both timed out
  EXPECT_EQ(entry.seed, 2u);

  std::ifstream in(options.campaign.quarantine_out);
  ASSERT_TRUE(in.good());
  std::ostringstream json;
  json << in.rdbuf();
  EXPECT_NE(json.str().find("\"slot\":1"), std::string::npos) << json.str();
  EXPECT_NE(json.str().find("watchdog timeout"), std::string::npos) << json.str();
}

// 1e10 s lies past steady_clock's range in int64 nanoseconds.  A watchdog
// that converted it as is would wrap to a deadline in the past and cancel
// the job at once; the job idles 200 ms first so that such a watchdog fires.
TEST_F(CampaignTest, BudgetPastTheClockRangeNeverFires) {
  SweepJobHooks hooks;
  hooks.execute = [](const ExperimentConfig& config, int) {
    const auto idle_until = std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    while (std::chrono::steady_clock::now() < idle_until) {
      if (config.cancel != nullptr && config.cancel->load()) {
        throw CancelledError("cancelled while idle");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    SweepJobResult slot;
    slot.result = RunExperiment(config);
    return slot;
  };

  SweepOptions options;
  options.threads = 1;
  options.campaign.job_timeout = 1e10;
  options.campaign.max_retries = 0;
  SweepRunner runner(options);
  const auto jobs = runner.Run({ShortMpeg(1)}, hooks);
  ASSERT_TRUE(jobs[0].ok()) << jobs[0].error;
}

TEST_F(CampaignTest, InvalidConfigSkipsRetriesAndIsQuarantined) {
  const std::vector<ExperimentConfig> grid = {ShortMpeg(1),
                                              ShortMpeg(2, "definitely-not-a-spec")};
  SweepOptions options;
  options.threads = 1;
  options.campaign.max_retries = 3;
  options.campaign.quarantine_out = (dir_ / "quarantine.json").string();
  SweepRunner runner(options);
  const auto jobs = runner.Run(grid);

  EXPECT_TRUE(jobs[0].ok());
  EXPECT_FALSE(jobs[1].ok());
  ASSERT_EQ(runner.metrics().quarantined.size(), 1u);
  // A deterministic rejection (unknown governor) must not burn the retry
  // budget: one attempt, straight to quarantine.
  EXPECT_EQ(runner.metrics().quarantined[0].attempts, 1);
  EXPECT_EQ(runner.metrics().retries, 0u);
}

TEST_F(CampaignTest, TransientFailureIsRetriedInAPlainSweep) {
  // No campaign flag set: the retry rule still applies to every run, and the
  // job body sees the worker arena bound on every attempt.
  const std::vector<ExperimentConfig> grid = {ShortMpeg(1), ShortMpeg(2)};
  std::vector<int> calls(grid.size(), 0);
  SweepJobHooks hooks;
  hooks.execute = [&](const ExperimentConfig& config, int index) {
    EXPECT_NE(config.arena, nullptr);
    if (++calls[static_cast<std::size_t>(index)] == 1 && index == 1) {
      throw std::runtime_error("transient");
    }
    SweepJobResult slot;
    slot.result = RunExperiment(config);
    return slot;
  };
  SweepOptions options;
  options.threads = 1;
  SweepRunner runner(options);
  const auto jobs = runner.Run(grid, hooks);

  ASSERT_TRUE(jobs[1].ok()) << jobs[1].error;
  EXPECT_EQ(calls, (std::vector<int>{1, 2}));
  EXPECT_EQ(runner.metrics().retries, 1u);
  EXPECT_TRUE(runner.metrics().quarantined.empty());
  EXPECT_EQ(Fingerprint(*jobs[1].result), Fingerprint(RunExperiment(grid[1])));
}

TEST_F(CampaignTest, QuarantinedSlotReplaysAsQuarantinedOnResume) {
  const std::vector<ExperimentConfig> grid = {ShortMpeg(1),
                                              ShortMpeg(2, "definitely-not-a-spec")};
  SweepOptions options = ResumeOptions(1);
  options.campaign.max_retries = 0;
  SweepRunner first(options);
  first.Run(grid);
  ASSERT_EQ(first.metrics().quarantined.size(), 1u);

  SweepRunner second(options);
  const auto jobs = second.Run(grid);
  // The journal remembers the quarantine: nothing re-runs, and the slot is
  // still reported as quarantined with its original error.
  EXPECT_EQ(second.metrics().executed(), 0);
  EXPECT_EQ(second.metrics().replayed, 2);
  ASSERT_EQ(second.metrics().quarantined.size(), 1u);
  EXPECT_FALSE(jobs[1].ok());
  EXPECT_NE(jobs[1].error.find("definitely-not-a-spec"), std::string::npos);
}

TEST_F(CampaignTest, RunSweepRoutesThroughTheCampaignAndNamesTheQuarantine) {
  const std::vector<ExperimentConfig> grid = {ShortMpeg(1),
                                              ShortMpeg(2, "definitely-not-a-spec")};
  SweepOptions options;
  options.threads = 1;
  options.campaign.quarantine_out = (dir_ / "quarantine.json").string();
  try {
    RunSweep(grid, options);
    FAIL() << "expected RunSweep to throw for the quarantined job";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("quarantine"), std::string::npos) << e.what();
  }
  EXPECT_TRUE(fs::exists(options.campaign.quarantine_out));
}

TEST(RenderQuarantineJsonTest, EscapesAndStructuresEntries) {
  QuarantineEntry entry;
  entry.slot = 4;
  entry.app = "mpeg";
  entry.governor = "bad\"spec";
  entry.seed = 9;
  entry.attempts = 3;
  entry.error = "line\nbreak";
  const std::string json = RenderQuarantineJson(0x1234, 8, {entry});
  EXPECT_NE(json.find("\"jobs\":8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"slot\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("bad\\\"spec"), std::string::npos) << json;
  EXPECT_NE(json.find("line\\nbreak"), std::string::npos) << json;
  EXPECT_NE(RenderQuarantineJson(0, 0, {}).find("\"quarantined\":[]"), std::string::npos);
}

}  // namespace
}  // namespace dcs
