#include "src/exp/artifacts.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <unistd.h>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace dcs {
namespace {

namespace fs = std::filesystem;

ExperimentResult ShortRun() {
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = "PAST-peg-peg-93-98";
  config.seed = 3;
  config.duration = SimTime::Seconds(3);
  return RunExperiment(config, ExperimentReads::kFullResult);
}

class ArtifactsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each test in its own process, possibly in parallel: the
    // directory must be unique per test to avoid cross-test clobbering.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("dcs_artifacts_") + info->name() + "_" +
            std::to_string(static_cast<long>(::getpid())));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(ArtifactsTest, WritesSeriesAndSummary) {
  const ExperimentResult result = ShortRun();
  ASSERT_TRUE(WriteArtifacts(dir_.string(), "tab2/run one", result));
  // Tag sanitised; one file per recorded series plus the summary.
  EXPECT_TRUE(fs::exists(dir_ / "tab2_run_one.utilization.csv"));
  EXPECT_TRUE(fs::exists(dir_ / "tab2_run_one.freq_mhz.csv"));
  EXPECT_TRUE(fs::exists(dir_ / "tab2_run_one.summary.csv"));
}

TEST_F(ArtifactsTest, SummaryContentsRoundTrip) {
  const ExperimentResult result = ShortRun();
  ASSERT_TRUE(WriteArtifacts(dir_.string(), "t", result));
  std::ifstream in(dir_ / "t.summary.csv");
  std::string header;
  std::string row;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  EXPECT_NE(header.find("energy_j"), std::string::npos);
  EXPECT_NE(row.find("mpeg,PAST-peg-peg-93/98,3"), std::string::npos);
}

TEST_F(ArtifactsTest, SeriesCsvHasOneRowPerQuantum) {
  const ExperimentResult result = ShortRun();
  ASSERT_TRUE(WriteArtifacts(dir_.string(), "t", result));
  std::ifstream in(dir_ / "t.utilization.csv");
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
  }
  // Header + ~300 quanta of a 3 s run.
  EXPECT_NEAR(static_cast<double>(lines), 301.0, 3.0);
}

TEST_F(ArtifactsTest, CreatesNestedDirectories) {
  const ExperimentResult result = ShortRun();
  const fs::path nested = dir_ / "a" / "b";
  EXPECT_TRUE(WriteArtifacts(nested.string(), "t", result));
  EXPECT_TRUE(fs::exists(nested / "t.summary.csv"));
}

TEST_F(ArtifactsTest, FailureSurfacesTheFailingPath) {
  const ExperimentResult result = ShortRun();
  // A file already occupies the destination *directory* path: creating the
  // directory fails before any CSV is attempted, and the error names it.
  fs::create_directories(dir_);
  const fs::path blocked = dir_ / "occupied";
  std::ofstream(blocked).put('\n');
  std::string error;
  EXPECT_FALSE(WriteArtifacts(blocked.string(), "t", result, &error));
  EXPECT_NE(error.find("occupied"), std::string::npos) << error;
}

TEST_F(ArtifactsTest, FailedExportLeavesNoPartialFiles) {
  const ExperimentResult result = ShortRun();
  ASSERT_TRUE(WriteArtifacts(dir_.string(), "t", result));
  // Every artifact is published via temp+rename, so the directory holds only
  // complete CSVs — no .tmp leftovers even right after a write.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), ".csv") << entry.path();
  }
}

TEST_F(ArtifactsTest, MaybeWriteSkipsWithoutEnvVar) {
  unsetenv("DCS_ARTIFACTS");
  const ExperimentResult result = ShortRun();
  EXPECT_TRUE(MaybeWriteArtifacts("t", result));
  EXPECT_FALSE(fs::exists(dir_ / "t.summary.csv"));
}

TEST_F(ArtifactsTest, MaybeWriteHonoursEnvVar) {
  setenv("DCS_ARTIFACTS", dir_.string().c_str(), 1);
  const ExperimentResult result = ShortRun();
  EXPECT_TRUE(MaybeWriteArtifacts("env_tag", result));
  unsetenv("DCS_ARTIFACTS");
  EXPECT_TRUE(fs::exists(dir_ / "env_tag.summary.csv"));
}

}  // namespace
}  // namespace dcs
