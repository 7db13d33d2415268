#include "src/exp/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/exp/sweep.h"

namespace dcs {
namespace {

// argv builder: gtest argv must be mutable char*, so keep storage alive.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    storage_.insert(storage_.begin(), "bench");
    for (std::string& s : storage_) {
      ptrs_.push_back(s.data());
    }
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

TEST(FlagSetTest, ParsesBothValueSpellings) {
  int threads = 0;
  std::string out;
  bool quick = false;
  FlagSet flags;
  flags.Int("threads", &threads);
  flags.String("out", &out);
  flags.Switch("quick", &quick);
  Argv a({"--threads=4", "--out", "report.json", "--quick"});
  std::string error;
  ASSERT_TRUE(flags.Parse(a.argc(), a.argv(), &error)) << error;
  EXPECT_EQ(threads, 4);
  EXPECT_EQ(out, "report.json");
  EXPECT_TRUE(quick);
}

TEST(FlagSetTest, DefaultsSurviveWhenFlagAbsent) {
  int threads = 7;
  FlagSet flags;
  flags.Int("threads", &threads);
  Argv a({});
  ASSERT_TRUE(flags.Parse(a.argc(), a.argv(), nullptr));
  EXPECT_EQ(threads, 7);
}

TEST(FlagSetTest, DuplicateFlagFailsInsteadOfLastWriteWins) {
  int threads = 0;
  FlagSet flags;
  flags.Int("threads", &threads);
  Argv a({"--threads=2", "--threads=8"});
  std::string error;
  EXPECT_FALSE(flags.Parse(a.argc(), a.argv(), &error));
  EXPECT_EQ(error, "duplicate flag '--threads'");
}

TEST(FlagSetTest, AliasConflictNamesBothSpellings) {
  std::string out;
  FlagSet flags;
  flags.String("report-out", &out);
  flags.Alias("out", "report-out");
  Argv a({"--report-out=a.json", "--out=b.json"});
  std::string error;
  EXPECT_FALSE(flags.Parse(a.argc(), a.argv(), &error));
  EXPECT_EQ(error, "'--out' conflicts with '--report-out'");
}

TEST(FlagSetTest, AliasWritesTheSharedTarget) {
  std::string out;
  FlagSet flags;
  flags.String("report-out", &out);
  flags.Alias("out", "report-out");
  Argv a({"--out=b.json"});
  std::string error;
  ASSERT_TRUE(flags.Parse(a.argc(), a.argv(), &error)) << error;
  EXPECT_EQ(out, "b.json");
}

TEST(FlagSetTest, RejectsUnparsableNumbers) {
  int threads = 0;
  double timeout = 0.0;
  FlagSet flags;
  flags.Int("threads", &threads);
  flags.Double("job-timeout", &timeout);
  std::string error;
  {
    Argv a({"--threads=4abc"});
    EXPECT_FALSE(flags.Parse(a.argc(), a.argv(), &error));
    EXPECT_EQ(error, "'--threads' needs an integer, got '4abc'");
  }
  {
    Argv a({"--job-timeout="});
    EXPECT_FALSE(flags.Parse(a.argc(), a.argv(), &error));
    EXPECT_EQ(error, "'--job-timeout' needs a number, got ''");
  }
  // strtod reads inf and nan, but no budget means them.
  for (const char* value : {"inf", "nan", "-inf"}) {
    Argv a({std::string("--job-timeout=") + value});
    EXPECT_FALSE(flags.Parse(a.argc(), a.argv(), &error)) << value;
    EXPECT_EQ(error, std::string("'--job-timeout' needs a number, got '") + value + "'");
  }
  {
    // Finite but past steady_clock's range in nanoseconds: still a number.
    Argv a({"--job-timeout=1e10"});
    ASSERT_TRUE(flags.Parse(a.argc(), a.argv(), &error)) << error;
    EXPECT_EQ(timeout, 1e10);
  }
}

TEST(FlagSetTest, MissingValueIsAnError) {
  int threads = 0;
  FlagSet flags;
  flags.Int("threads", &threads);
  Argv a({"--threads"});
  std::string error;
  EXPECT_FALSE(flags.Parse(a.argc(), a.argv(), &error));
  EXPECT_EQ(error, "'--threads' needs a value");
}

TEST(FlagSetTest, SwitchRejectsValue) {
  bool progress = false;
  FlagSet flags;
  flags.Switch("progress", &progress);
  Argv a({"--progress=yes"});
  std::string error;
  EXPECT_FALSE(flags.Parse(a.argc(), a.argv(), &error));
  EXPECT_EQ(error, "'--progress' takes no value");
}

TEST(FlagSetTest, StrictModeRejectsTypos) {
  int threads = 0;
  FlagSet flags;
  flags.Int("threads", &threads);
  Argv a({"--thread=4"});
  std::string error;
  EXPECT_FALSE(flags.Parse(a.argc(), a.argv(), &error));
  EXPECT_EQ(error, "unknown flag '--thread'");
}

TEST(FlagSetTest, IntOutsideItsRangeIsAnError) {
  int n = 7;
  FlagSet flags;
  flags.Int("n", &n, 0, 4);
  std::string error;
  Argv low({"--n=-1"});
  EXPECT_FALSE(flags.Parse(low.argc(), low.argv(), &error));
  EXPECT_EQ(error, "'--n' needs an integer in [0, 4], got '-1'");
  Argv high({"--n=5"});
  EXPECT_FALSE(flags.Parse(high.argc(), high.argv(), &error));
  EXPECT_EQ(n, 7);
  Argv edge({"--n=4"});
  ASSERT_TRUE(flags.Parse(edge.argc(), edge.argv(), &error)) << error;
  EXPECT_EQ(n, 4);
}

TEST(FlagSetTest, ReparseClearsSeenState) {
  int threads = 0;
  FlagSet flags;
  flags.Int("threads", &threads);
  Argv a({"--threads=2"});
  ASSERT_TRUE(flags.Parse(a.argc(), a.argv(), nullptr));
  // A second parse of the same argv must not report a duplicate.
  ASSERT_TRUE(flags.Parse(a.argc(), a.argv(), nullptr));
  EXPECT_EQ(threads, 2);
}

TEST(FlagSetTest, HelpListsFlagsOnStdoutAndExitsZero) {
  int threads = 0;
  FlagSet flags;
  flags.Int("threads", &threads);
  Argv a({"--threads=2", "--help"});
  EXPECT_EXIT(flags.ParseOrExit(a.argc(), a.argv()), ::testing::ExitedWithCode(0), "");
}

TEST(FlagSetTest, ParseOrExitRejectsGarbageNumbers) {
  // The hand-rolled atoi loops this replaces turned "--threads=abc" into 0.
  int threads = 0;
  FlagSet flags;
  flags.Int("threads", &threads);
  Argv a({"--threads=abc"});
  EXPECT_EXIT(flags.ParseOrExit(a.argc(), a.argv()), ::testing::ExitedWithCode(2),
              "needs an integer");
}

TEST(RegisterSweepFlagsTest, CoversSharedSweepSurface) {
  SweepOptions options;
  FlagSet flags;
  RegisterSweepFlags(flags, &options);
  Argv a({"--threads=4", "--progress", "--metrics-out=m.json", "--faults=none",
          "--resume=r.journal", "--job-timeout=1.5", "--max-retries=3",
          "--quarantine-out=q.json", "--trace-out=t.json"});
  std::string error;
  ASSERT_TRUE(flags.Parse(a.argc(), a.argv(), &error)) << error;
  EXPECT_EQ(options.threads, 4);
  EXPECT_TRUE(options.progress);
  EXPECT_EQ(options.metrics_out, "m.json");
  EXPECT_EQ(options.faults, "none");
  EXPECT_EQ(options.campaign.resume, "r.journal");
  EXPECT_DOUBLE_EQ(options.campaign.job_timeout, 1.5);
  EXPECT_EQ(options.campaign.max_retries, 3);
  EXPECT_EQ(options.campaign.quarantine_out, "q.json");
  EXPECT_EQ(options.trace_out, "t.json");
}

// Parses `args` through the shared sweep flags into fresh options.
SweepOptions ParseSweepFlags(std::vector<std::string> args) {
  SweepOptions options;
  FlagSet flags;
  RegisterSweepFlags(flags, &options);
  Argv a(std::move(args));
  std::string error;
  EXPECT_TRUE(flags.Parse(a.argc(), a.argv(), &error)) << error;
  return options;
}

TEST(RegisterSweepFlagsTest, ParsesThreadsAndProgress) {
  SweepOptions options = ParseSweepFlags({"--threads=6", "--progress"});
  EXPECT_EQ(options.threads, 6);
  EXPECT_TRUE(options.progress);

  options = ParseSweepFlags({"--threads", "4"});
  EXPECT_EQ(options.threads, 4);
  EXPECT_FALSE(options.progress);

  options = ParseSweepFlags({});
  EXPECT_EQ(options.threads, 0);
}

TEST(RegisterSweepFlagsTest, ParsesCampaignFlags) {
  SweepOptions options = ParseSweepFlags({"--resume=run.journal", "--job-timeout=2.5",
                                          "--max-retries=5", "--quarantine-out=bad.json"});
  EXPECT_EQ(options.campaign.resume, "run.journal");
  EXPECT_DOUBLE_EQ(options.campaign.job_timeout, 2.5);
  EXPECT_EQ(options.campaign.max_retries, 5);
  EXPECT_EQ(options.campaign.quarantine_out, "bad.json");
  EXPECT_EQ(options.campaign.QuarantinePath(), "bad.json");

  // Space-separated form; the report defaults to sit beside the journal.
  options = ParseSweepFlags({"--resume", "j.bin"});
  EXPECT_EQ(options.campaign.resume, "j.bin");
  EXPECT_EQ(options.campaign.QuarantinePath(), "j.bin.quarantine.json");

  options = ParseSweepFlags({});
  EXPECT_EQ(options.campaign.resume, "");
  EXPECT_EQ(options.campaign.job_timeout, 0.0);
  EXPECT_EQ(options.campaign.QuarantinePath(), "");
  EXPECT_EQ(options.campaign.max_retries, 2);
}

TEST(RegisterSweepFlagsTest, MaxRetriesOutsideItsRangeFails) {
  // -1 would run no attempt and quarantine every job with an empty error;
  // past the cap the backoff's shift would overflow.
  for (const char* bad : {"-1", "17", "40"}) {
    SweepOptions options;
    FlagSet flags;
    RegisterSweepFlags(flags, &options);
    Argv a({std::string("--max-retries=") + bad});
    std::string error;
    EXPECT_FALSE(flags.Parse(a.argc(), a.argv(), &error)) << bad;
    EXPECT_EQ(error, std::string("'--max-retries' needs an integer in [0, 16], got '") + bad + "'");
  }
  EXPECT_EQ(ParseSweepFlags({"--max-retries=0"}).campaign.max_retries, 0);
  EXPECT_EQ(ParseSweepFlags({"--max-retries=16"}).campaign.max_retries, 16);
}

TEST(RegisterSweepFlagsTest, DuplicateThreadsAcrossSpellingsFails) {
  SweepOptions options;
  FlagSet flags;
  RegisterSweepFlags(flags, &options);
  Argv a({"--threads", "2", "--threads=8"});
  std::string error;
  EXPECT_FALSE(flags.Parse(a.argc(), a.argv(), &error));
  EXPECT_EQ(error, "duplicate flag '--threads'");
}

}  // namespace
}  // namespace dcs
