// String-spec factory for governors, so benches, sweeps and the example CLI
// can name policies the way the paper does.
//
// Grammar (case-insensitive keywords):
//   "fixed-<mhz>"              e.g. "fixed-206.4"        (1.5 V)
//   "fixed-<mhz>@1.23"         e.g. "fixed-132.7@1.23"   (1.23 V rail)
//   "<pred>-<up>-<down>-<lo>-<hi>[-vs]"
//        pred: PAST | AVG<n> | WIN<n>
//        up/down: one | double | peg
//        lo/hi: scale-down / scale-up thresholds in percent
//        -vs: enable 1.23 V voltage scaling below 162.2 MHz
//        e.g. "PAST-peg-peg-93-98", "AVG9-one-one-50-70-vs"
//   "cycles<window>"           the naive Figure 5 policy, e.g. "cycles4"
//   "ondemand" | "schedutil"   modern baselines
//   "pid[-<kp>-<ki>-<kd>][-vs]"  feedback governor on deadline slack +
//                              utilization error, e.g. "pid-0.5-0.4-0.05-vs"
//                              (default gains when omitted)
//   "adaptive[-<eta>][-vs]"    multiplicative-weights learner over a
//                              PAST/AVG/WIN expert pool, e.g. "adaptive-2.0"
//   "none"                     no policy (returns nullptr with no error)

#ifndef SRC_CORE_GOVERNOR_REGISTRY_H_
#define SRC_CORE_GOVERNOR_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/kernel/policy.h"

namespace dcs {

// Builds a governor from `spec`.  On failure returns nullptr and, if `error`
// is non-null, stores a human-readable reason.  The spec "none" returns
// nullptr with an empty error (meaning: run without a policy).
std::unique_ptr<ClockPolicy> MakeGovernor(const std::string& spec, std::string* error = nullptr);

// A governor plus its static dispatch record.  The registry is the one place
// that still knows each spec's concrete type, so it is where the devirtualised
// OnQuantum thunk (PolicyDispatch::For<Concrete>) gets built; the kernel then
// ticks through a plain function pointer instead of the vtable.  `dispatch`
// is non-owning: it aliases `governor` and is valid only while it lives.
struct GovernorHandle {
  std::unique_ptr<ClockPolicy> governor;
  PolicyDispatch dispatch;
};

// Like MakeGovernor, but also returns the static dispatch record for the
// concrete type the spec resolved to.  Failure and "none" behave as in
// MakeGovernor (null governor, null dispatch.policy).
GovernorHandle MakeGovernorDispatch(const std::string& spec, std::string* error = nullptr);

// The full 20-governor slate: every policy family the registry can build —
// fixed points, the PAST/AVG/WIN/LS/CYCLE/PEAK interval variants, cycle- and
// saturation-counters, the deadline pair, the Linux-style governors, flat
// utilization, the feedback (PID) and adaptive learners, and "none".  Shared
// by the fault-storm suite, the server SLO bench and the competitive-ratio
// harness so "all governors" means the same thing everywhere.
std::vector<std::string> AllGovernorSpecs();

// The family `spec` belongs to ("fixed", "pid", "interval-avg", ...): the
// name of the registry row that claims it, by syntax alone (the spec may
// still fail validation in MakeGovernor).  Returns "" for specs no row
// claims.
std::string GovernorFamilyOf(const std::string& spec);

}  // namespace dcs

#endif  // SRC_CORE_GOVERNOR_REGISTRY_H_
