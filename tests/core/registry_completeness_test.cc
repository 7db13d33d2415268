// Registry completeness: the governor slate, the family taxonomy, and the
// factory must stay mutually consistent.  Sweeps, fault storms, and the
// competitive-ratio bench all iterate AllGovernorSpecs(), so a governor that
// is registered but missing from the slate silently vanishes from every
// cross-cutting study — this suite is what makes that a test failure instead.

#include "src/core/governor_registry.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/exp/experiment.h"

namespace dcs {
namespace {

// One row per family the registry's grammar can reach, with an example spec
// that builds it.  Registering a new family without representing it in the
// slate (or here) fails EveryFamilyIsRepresentedInTheSlate.
struct FamilyExample {
  std::string family;
  std::string example_spec;
};

std::vector<FamilyExample> GovernorFamilies() {
  return {
      {"none", "none"},
      {"fixed", "fixed-206.4"},
      {"cycles", "cycles4"},
      {"satrate", "satrate4"},
      {"deadline", "deadline"},
      {"ondemand", "ondemand"},
      {"schedutil", "schedutil"},
      {"flat", "flat-75"},
      {"pid", "pid-vs"},
      {"adaptive", "adaptive-vs"},
      {"interval-past", "PAST-peg-peg-93-98"},
      {"interval-avg", "AVG9-one-one-50-70"},
      {"interval-win", "WIN10-peg-peg-93-98"},
      {"interval-ls", "LS-peg-peg-93-98"},
      {"interval-cycle", "CYCLE10-peg-peg-93-98"},
      {"interval-peak", "PEAK-peg-peg-93-98"},
  };
}

TEST(RegistryCompletenessTest, SlateHasNoDuplicatesAndCoversTheFullRoster) {
  const std::vector<std::string> slate = AllGovernorSpecs();
  const std::set<std::string> unique(slate.begin(), slate.end());
  EXPECT_EQ(unique.size(), slate.size()) << "duplicate spec in AllGovernorSpecs()";
  // 18 specs through PR 6 plus the feedback and adaptive governors; grows
  // monotonically as policies are added.
  EXPECT_GE(slate.size(), 20u);
}

TEST(RegistryCompletenessTest, EverySlateSpecConstructsAndClassifies) {
  for (const std::string& spec : AllGovernorSpecs()) {
    std::string error;
    auto governor = MakeGovernor(spec, &error);
    if (spec == "none") {
      EXPECT_EQ(governor, nullptr);
      EXPECT_TRUE(error.empty()) << spec << ": " << error;
    } else {
      EXPECT_NE(governor, nullptr) << spec << ": " << error;
    }
    EXPECT_FALSE(GovernorFamilyOf(spec).empty()) << spec << " has no family";
  }
}

TEST(RegistryCompletenessTest, EveryFamilyIsRepresentedInTheSlate) {
  // Each taxonomy row must (a) name a family some slate spec maps to, and
  // (b) carry an example spec that parses and classifies into that family.
  std::set<std::string> slate_families;
  for (const std::string& spec : AllGovernorSpecs()) {
    slate_families.insert(GovernorFamilyOf(spec));
  }
  std::set<std::string> taxonomy_families;
  for (const FamilyExample& row : GovernorFamilies()) {
    EXPECT_FALSE(row.family.empty());
    EXPECT_TRUE(taxonomy_families.insert(row.family).second)
        << "duplicate family " << row.family;
    EXPECT_EQ(GovernorFamilyOf(row.example_spec), row.family)
        << row.example_spec << " does not classify into " << row.family;
    std::string error;
    auto governor = MakeGovernor(row.example_spec, &error);
    if (row.example_spec != "none") {
      EXPECT_NE(governor, nullptr) << row.example_spec << ": " << error;
    }
    EXPECT_TRUE(slate_families.count(row.family))
        << "family " << row.family << " has no spec in AllGovernorSpecs()";
  }
  // And conversely: no slate spec belongs to a family the taxonomy forgot.
  for (const std::string& family : slate_families) {
    EXPECT_TRUE(taxonomy_families.count(family))
        << "slate family " << family << " missing from GovernorFamilies()";
  }
}

TEST(RegistryCompletenessTest, EverySlateSpecBuildsAStaticDispatchHandle) {
  // The kernel ticks governors through the registry-built PolicyDispatch
  // thunk (not the vtable), so every constructible spec must come with a
  // dispatch record that aliases its governor; a branch that forgets to wrap
  // its concrete type would tick as a silent no-op.
  for (const std::string& spec : AllGovernorSpecs()) {
    std::string error;
    GovernorHandle handle = MakeGovernorDispatch(spec, &error);
    if (spec == "none") {
      EXPECT_EQ(handle.governor, nullptr);
      EXPECT_EQ(handle.dispatch.policy, nullptr);
      EXPECT_EQ(handle.dispatch.on_quantum, nullptr);
      EXPECT_TRUE(error.empty()) << spec << ": " << error;
      continue;
    }
    ASSERT_NE(handle.governor, nullptr) << spec << ": " << error;
    EXPECT_EQ(handle.dispatch.policy, handle.governor.get())
        << spec << ": dispatch must alias the governor it was built from";
    EXPECT_NE(handle.dispatch.on_quantum, nullptr) << spec;
  }
  // MakeGovernor stays the thin wrapper: same construction, no dispatch.
  std::string error;
  EXPECT_EQ(MakeGovernorDispatch("warpdrive", &error).governor, nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(RegistryCompletenessTest, UnknownSpecsClassifyAsUnknown) {
  EXPECT_EQ(GovernorFamilyOf("warpdrive"), "");
  EXPECT_EQ(GovernorFamilyOf("FOO-one-one-50-70"), "");
}

TEST(RegistryCompletenessTest, EverySpecRerunsToByteIdenticalSchedLog) {
  // The scheduler-activity log is the finest-grained observable a run
  // produces (microsecond timestamps, per-decision); two runs of the same
  // config must reproduce it entry for entry for every registered governor,
  // or the obs exports and golden digests stop being comparable.
  for (const std::string& spec : AllGovernorSpecs()) {
    ExperimentConfig config;
    config.app = "mpeg";
    config.governor = spec;
    config.seed = 23;
    config.duration = SimTime::Seconds(2);
    config.capture_obs = true;

    const ExperimentResult a = RunExperiment(config);
    const ExperimentResult b = RunExperiment(config);
    ASSERT_TRUE(a.obs.captured) << spec;
    ASSERT_TRUE(b.obs.captured) << spec;
    ASSERT_FALSE(a.obs.sched.empty()) << spec;
    ASSERT_EQ(a.obs.sched.size(), b.obs.sched.size()) << spec;
    for (std::size_t i = 0; i < a.obs.sched.size(); ++i) {
      EXPECT_EQ(a.obs.sched[i].time_us, b.obs.sched[i].time_us) << spec << " entry " << i;
      EXPECT_EQ(a.obs.sched[i].pid, b.obs.sched[i].pid) << spec << " entry " << i;
      EXPECT_EQ(a.obs.sched[i].clock_step, b.obs.sched[i].clock_step)
          << spec << " entry " << i;
    }
    EXPECT_EQ(a.exact_energy_joules, b.exact_energy_joules) << spec;
  }
}

}  // namespace
}  // namespace dcs
