// Golden stdout regression tests: runs the paper-table benches end to end
// and byte-compares their stdout against the captures in tests/golden/.
//
// The benches keep stdout deterministic by construction — every printed
// number derives from simulated state, progress and obs diagnostics go to
// stderr — so the comparison is exact, not fuzzy.  The sweep-driven benches
// are re-run here with --threads=2 while the captures were taken with
// --threads=1, which regression-tests the engine's thread-count invariance
// at the same time.
//
// After an intentional output change, regenerate with:
//
//   cmake --build build -j
//   tests/golden/update.sh build
//   git diff tests/golden/       # review like any other code change
//
// Directories default to the build/source trees (baked in at configure
// time) and can be overridden with DCS_BENCH_DIR / DCS_GOLDEN_DIR.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "gtest/gtest.h"

namespace dcs {
namespace {

#ifndef DCS_BENCH_DIR
#define DCS_BENCH_DIR "bench"
#endif
#ifndef DCS_GOLDEN_DIR
#define DCS_GOLDEN_DIR "tests/golden"
#endif

std::string DirFromEnv(const char* env_name, const char* fallback) {
  const char* env = std::getenv(env_name);
  return env != nullptr && env[0] != '\0' ? env : fallback;
}

std::string BenchDir() { return DirFromEnv("DCS_BENCH_DIR", DCS_BENCH_DIR); }
std::string GoldenDir() { return DirFromEnv("DCS_GOLDEN_DIR", DCS_GOLDEN_DIR); }

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

// Runs `command` through the shell and captures its stdout byte-for-byte.
// Fails the current test if the command cannot be started or exits non-zero.
std::string RunAndCapture(const std::string& command) {
  std::string captured;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << command;
    return captured;
  }
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    captured.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  EXPECT_EQ(status, 0) << "non-zero exit from: " << command;
  return captured;
}

// Points at the first differing line so a golden mismatch reads like a diff
// hunk instead of two multi-kilobyte blobs.
void ExpectSameText(const std::string& expected, const std::string& actual,
                    const std::string& what) {
  if (expected == actual) {
    return;
  }
  std::istringstream want(expected);
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  int line = 0;
  for (;;) {
    ++line;
    const bool have_want = static_cast<bool>(std::getline(want, want_line));
    const bool have_got = static_cast<bool>(std::getline(got, got_line));
    if (!have_want && !have_got) {
      break;
    }
    if (!have_want || !have_got || want_line != got_line) {
      ADD_FAILURE() << what << " differs at line " << line << "\n  golden: "
                    << (have_want ? want_line : "<end of file>")
                    << "\n  actual: " << (have_got ? got_line : "<end of output>")
                    << "\nIf the change is intentional, regenerate with "
                       "tests/golden/update.sh and review the diff.";
      return;
    }
  }
  ADD_FAILURE() << what << " differs (line split/trailing bytes)";
}

void ExpectGolden(const std::string& bench, const std::string& args) {
  const std::string golden_path = GoldenDir() + "/" + bench + ".txt";
  std::string expected;
  ASSERT_TRUE(ReadFile(golden_path, &expected))
      << "missing golden capture " << golden_path
      << " — generate it with tests/golden/update.sh";
  const std::string command =
      BenchDir() + "/" + bench + (args.empty() ? "" : " " + args) + " 2>/dev/null";
  const std::string actual = RunAndCapture(command);
  ExpectSameText(expected, actual, bench + " stdout");
}

TEST(GoldenTest, Tab1Avg9Actions) { ExpectGolden("tab1_avg9_actions", ""); }

TEST(GoldenTest, Fig8BestPolicyTrace) {
  ExpectGolden("fig8_best_policy_trace", "--threads=2");
}

TEST(GoldenTest, Fig9UtilizationVsFreq) {
  ExpectGolden("fig9_utilization_vs_freq", "--threads=2");
}

TEST(GoldenTest, Tab2EnergySummary) {
  ExpectGolden("tab2_energy_summary", "--threads=2");
}

// The fault-injection differential against the recorded captures: an
// explicit `--faults=none` must reproduce the pre-fault goldens byte for
// byte, proving the inactive plan leaves the simulation untouched.
TEST(GoldenTest, Fig9WithExplicitNoFaults) {
  ExpectGolden("fig9_utilization_vs_freq", "--threads=2 --faults=none");
}

TEST(GoldenTest, Tab2WithExplicitNoFaults) {
  ExpectGolden("tab2_energy_summary", "--threads=2 --faults=none");
}

// The open-loop server sweep: the capture is taken with --threads=1; the
// --threads=4 rerun proves the latency-percentile plumbing (histogram merge
// order, queue drain, deadline accounting) is thread-count invariant too.
TEST(GoldenTest, ServerSloQuick) { ExpectGolden("server_slo", "--quick --threads=1"); }

TEST(GoldenTest, ServerSloQuickThreadInvariant) {
  ExpectGolden("server_slo", "--quick --threads=4");
}

// The competitive-ratio sweep: every governor scored against the offline
// optimum on the quick grid.  A zero exit (enforced by RunAndCapture) means
// every ratio held >= 1.0; the byte-compare pins the ratios themselves.
TEST(GoldenTest, CompetitiveRatioQuick) {
  ExpectGolden("competitive_ratio", "--quick --threads=1");
}

TEST(GoldenTest, CompetitiveRatioQuickThreadInvariant) {
  ExpectGolden("competitive_ratio", "--quick --threads=4");
}

// The rest of the paper's figures and tables, the ablations and the related
// work benches.  Most take no flags.  The two sweep-driven ones are re-run at
// --threads=2 and --threads=4 against a capture taken at --threads=1.
struct PaperBench {
  std::string bench;
  int threads;  // 0: the bench takes no flags
};

class PaperBenchGoldenTest : public ::testing::TestWithParam<PaperBench> {};

TEST_P(PaperBenchGoldenTest, StdoutMatchesCapture) {
  const PaperBench& p = GetParam();
  ExpectGolden(p.bench, p.threads == 0 ? "" : "--threads=" + std::to_string(p.threads));
}

INSTANTIATE_TEST_SUITE_P(
    PaperBenches, PaperBenchGoldenTest,
    ::testing::Values(PaperBench{"fig3_utilization_10ms", 0},
                      PaperBench{"fig4_utilization_100ms", 0},
                      PaperBench{"fig5_simple_averaging", 0}, PaperBench{"fig6_fourier", 0},
                      PaperBench{"fig7_avg3_oscillation", 0}, PaperBench{"tab3_memory_latency", 0},
                      PaperBench{"switch_overhead", 0}, PaperBench{"battery_lifetime", 0},
                      PaperBench{"ablation_memory_model", 0}, PaperBench{"ablation_quantum", 0},
                      PaperBench{"ablation_spin_loop", 0}, PaperBench{"ablation_switch_cost", 0},
                      PaperBench{"govil_policies", 0}, PaperBench{"martin_bound", 0},
                      PaperBench{"oracle_bounds", 0}, PaperBench{"pering_elastic", 0},
                      PaperBench{"modern_governors", 0}, PaperBench{"deadline_governor", 0},
                      PaperBench{"deadline_sensitivity", 2}, PaperBench{"deadline_sensitivity", 4},
                      PaperBench{"sweep_avgn", 2}, PaperBench{"sweep_avgn", 4}),
    [](const ::testing::TestParamInfo<PaperBench>& info) {
      return info.param.threads == 0 ? info.param.bench
                                     : info.param.bench + "_threads" +
                                           std::to_string(info.param.threads);
    });

// ---------------------------------------------------------------------------
// Artifact byte-identity: beyond stdout, the exported observability files
// (--trace-out / --metrics-out) must be byte-for-byte reproducible.  The
// metrics JSON is compared directly against a committed golden; the Chrome
// traces are large, so only their sha256 digests are committed
// (tests/golden/obs_artifacts.sha256) and recomputed here.

std::string Sha256Of(const std::string& path) {
  const std::string out = RunAndCapture("sha256sum " + path);
  const std::size_t space = out.find(' ');
  return space == std::string::npos ? out : out.substr(0, space);
}

// Parses "hash  name" lines from obs_artifacts.sha256 into (name -> hash).
std::string GoldenShaFor(const std::string& artifact_name) {
  std::string listing;
  if (!ReadFile(GoldenDir() + "/obs_artifacts.sha256", &listing)) {
    ADD_FAILURE() << "missing " << GoldenDir() << "/obs_artifacts.sha256";
    return "";
  }
  std::istringstream lines(listing);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) {
      continue;
    }
    std::string name = line.substr(space);
    name.erase(0, name.find_first_not_of(" \t"));
    if (name == artifact_name) {
      return line.substr(0, space);
    }
  }
  ADD_FAILURE() << artifact_name << " not listed in obs_artifacts.sha256";
  return "";
}

void ExpectArtifactsGolden(const std::string& bench, const std::string& artifact,
                           const std::string& args) {
  // Cases that export the same artifact run as separate processes under
  // `ctest -j`, so each writes its own files: one case must not remove what
  // another is about to read.
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string stem = ::testing::TempDir() + "/" + artifact + "." + info->name() + "." +
                           std::to_string(static_cast<long>(::getpid()));
  const std::string trace_path = stem + ".trace.json";
  const std::string metrics_path = stem + ".metrics.json";
  const std::string command = BenchDir() + "/" + bench + " " + args +
                              " --trace-out=" + trace_path +
                              " --metrics-out=" + metrics_path +
                              " > /dev/null 2>/dev/null";
  RunAndCapture(command);

  std::string golden_metrics;
  ASSERT_TRUE(ReadFile(GoldenDir() + "/" + artifact + ".metrics.json", &golden_metrics))
      << "missing golden metrics for " << artifact;
  std::string actual_metrics;
  ASSERT_TRUE(ReadFile(metrics_path, &actual_metrics))
      << bench << " did not write " << metrics_path;
  ExpectSameText(golden_metrics, actual_metrics, artifact + ".metrics.json");

  const std::string want_sha = GoldenShaFor(artifact + ".trace.json");
  if (!want_sha.empty()) {
    EXPECT_EQ(Sha256Of(trace_path), want_sha)
        << artifact << ".trace.json changed — if intentional, regenerate "
           "with tests/golden/update.sh and review the diff";
  }
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(GoldenTest, Fig8ArtifactsByteIdentical) {
  ExpectArtifactsGolden("fig8_best_policy_trace", "fig8_past_peg_peg", "--threads=1");
}

TEST(GoldenTest, Tab2ArtifactsByteIdentical) {
  ExpectArtifactsGolden("tab2_energy_summary", "tab2_energy_summary", "--threads=1");
}

// Thread-count invariance extends to the artifacts, not just stdout.
TEST(GoldenTest, Tab2ArtifactsThreadInvariant) {
  ExpectArtifactsGolden("tab2_energy_summary", "tab2_energy_summary", "--threads=2");
}

// The server sweep's --metrics-out carries the latency_us.requests histogram
// (p50/p95/p99/p999); both thread counts must reproduce the committed JSON.
TEST(GoldenTest, ServerSloArtifactsByteIdentical) {
  ExpectArtifactsGolden("server_slo", "server_slo_quick", "--quick --threads=1");
}

TEST(GoldenTest, ServerSloArtifactsThreadInvariant) {
  ExpectArtifactsGolden("server_slo", "server_slo_quick", "--quick --threads=4");
}

}  // namespace
}  // namespace dcs
