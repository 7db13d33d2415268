// Overload control for the open-loop server workload.
//
// PR 6 showed the open-loop server falls off a cliff: at 320 req/s the
// deadline governor posts 99.4% SLO violations while burning peak energy,
// because an open loop keeps offering work no matter how far behind the
// server falls.  This module adds the missing admission gate (ROADMAP item
// 4): an online schedulability estimator in the style of Fabritius et al.'s
// schedulability-vs-frequency test, which compares the offered demand
// against the frequency headroom the active governor can still supply, and
// sheds the work that cannot meet its SLO *before* it enters the queue.
//
// The estimator tracks two EWMAs on the demand side — per-request service
// demand (microseconds at the top clock step) and inter-arrival gap — and
// one on the supply side: the effective speed ratio of the step the
// governor actually chose each quantum (EffectiveBaseHz(step) /
// EffectiveBaseHz(top), so the memory-bound non-linearity of Figure 9 is
// priced in).  The supply signal arrives through the kernel's per-quantum
// SupplyObserver hook (src/kernel/workload_api.h), which also carries the
// rail-limited step ceiling, the brownout count, and the battery depth of
// discharge.
//
// A request is admitted only if both tests pass, scaled by the policy's
// utilization bound `B`:
//   utilization   demand_ewma / interarrival_ewma  <=  B * ratio[max_step]
//                 (long-run offered load vs the capacity the rail allows)
//   backlog       (queue_work + service) / speed_ewma  <=  B * slack
//                 (this request, behind the current queue, at the speed the
//                 governor is delivering, finishes inside its own SLO slack)
//
// Three pluggable policies interpret `B`:
//   none       no controller at all — byte-identical to the pre-admission
//              server (the competitive-ratio and golden suites depend on it)
//   static-u   fixed bound from AdmissionConfig::utilization_bound
//   feedback   AIMD adaptation of the bound from the admitted-request
//              violation rate: multiplicative decrease while violations
//              exceed the target, additive increase while a window meets it
//              (Xia et al.'s energy-aware feedback scheduling, PAPERS.md)
//
// Graceful degradation: when the battery rail sags — a brownout event from
// the fault injector, or depth of discharge past battery_shed_dod — the
// controller enters a degraded "brownout" mode that sheds the lowest-value
// request classes first (repeated brownouts shed deeper) and halves the
// bound for whatever it still admits.  Fault storms with the brownout class
// therefore exercise shedding, not just relock stalls.
//
// Determinism and hot-path rules: every input derives from simulated state,
// so decisions are byte-identical across sweep thread counts; Consider()
// and OnQuantum() are straight arithmetic — no allocation, no map lookups —
// because OnQuantum runs inside the clock interrupt (the hotpath
// alloc-count suite locks this down).

#ifndef SRC_WORKLOAD_ADMISSION_H_
#define SRC_WORKLOAD_ADMISSION_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/hw/clock_table.h"
#include "src/hw/memory_model.h"
#include "src/kernel/workload_api.h"
#include "src/obs/metrics.h"
#include "src/sim/fields.h"
#include "src/sim/time.h"

namespace dcs {

enum class AdmissionPolicy { kNone, kStaticU, kFeedback };

// "none" | "static-u" | "feedback".
const char* AdmissionPolicyName(AdmissionPolicy policy);

struct AdmissionConfig {
  AdmissionPolicy policy = AdmissionPolicy::kNone;
  // Utilization bound B: fixed for static-u, the starting point for
  // feedback.  Below 1 is conservative (admit less than nominal capacity);
  // above 1 trusts the governor to ramp up for admitted work.
  double utilization_bound = 0.85;

  // -- feedback (AIMD) parameters --
  // Adapt toward this violation rate among *admitted* requests.
  double target_violation_rate = 0.02;
  // Bound *= decrease_factor when a window's violation rate exceeds the
  // target; bound += increase_step when a window meets it.
  double decrease_factor = 0.7;
  double increase_step = 0.05;
  double min_bound = 0.05;
  double max_bound = 2.0;
  // Admitted-request outcomes per adaptation window.  Must resolve rates
  // finer than the target: one violation in a 64-window is 1.6% < 2%, so a
  // small structural lateness rate does not ratchet the bound down forever.
  int feedback_window = 64;

  // -- estimator parameters --
  // Per-request EWMA weight for the demand and inter-arrival estimates.
  // Deliberately slow: with exponential service times the ratio of two
  // faster EWMAs is noisy enough to spuriously trip the utilization test
  // well below the bound.
  double demand_ewma_weight = 0.02;
  // Per-quantum EWMA weight for the supplied-speed estimate (scaled by the
  // quantum's utilization, so idle quanta barely move it).
  double speed_ewma_weight = 0.1;

  // -- degraded ("brownout") mode --
  // Enter degraded mode when battery depth of discharge reaches this.
  double battery_shed_dod = 0.95;
  // How long a brownout event keeps the controller degraded.
  SimTime brownout_shed_hold = SimTime::Millis(500);
  // Bound multiplier applied to whatever degraded mode still admits.
  double degraded_bound_factor = 0.5;
};

// Every member, in declaration order (src/sim/fields.h).
constexpr auto Fields(const AdmissionConfig*) {
  return std::tuple{&AdmissionConfig::policy, &AdmissionConfig::utilization_bound,
                    &AdmissionConfig::target_violation_rate, &AdmissionConfig::decrease_factor,
                    &AdmissionConfig::increase_step, &AdmissionConfig::min_bound,
                    &AdmissionConfig::max_bound, &AdmissionConfig::feedback_window,
                    &AdmissionConfig::demand_ewma_weight, &AdmissionConfig::speed_ewma_weight,
                    &AdmissionConfig::battery_shed_dod, &AdmissionConfig::brownout_shed_hold,
                    &AdmissionConfig::degraded_bound_factor};
}
static_assert(ListsEveryField<AdmissionConfig>());

// Online schedulability estimator + admission gate.  One per ServerWorkload;
// the workload registers it as the kernel's SupplyObserver and consults
// Consider() for every arrival.
class AdmissionController final : public SupplyObserver {
 public:
  enum class Outcome { kAdmitted, kRejectedOverload, kRejectedShed };

  // `class_values` holds the value of each request class (indexed by the
  // class id passed to Consider); lower-valued classes are shed first in
  // degraded mode.  `rate_hint_rps` seeds the inter-arrival EWMA so the
  // first requests are judged against the configured offered load instead
  // of a cold estimator.
  AdmissionController(const AdmissionConfig& config, SimTime slo, double rate_hint_rps,
                      const MemoryProfile& profile, std::vector<double> class_values);

  // Decides one arrival.  `now` is the decision time (head-of-line
  // inspection), `arrival` the request's true arrival time, `service_us`
  // its demand at the top step, `backlog_us` the demand already queued
  // ahead of it, and `class_index` its request class.  Updates the demand
  // estimators whether or not the request is admitted (rejected work is
  // still offered load).  No allocation.
  Outcome Consider(SimTime now, SimTime arrival, double service_us, double backlog_us,
                   std::size_t class_index);

  // Reports the fate of one *admitted* request (violated = completed past
  // arrival + SLO); drives the feedback policy's AIMD bound.
  void ObserveOutcome(bool violated);

  // SupplyObserver: per-quantum supplied-speed/distress sample from the
  // kernel tick.  Straight arithmetic — runs in the clock interrupt.
  void OnQuantum(const SupplySample& sample) override;

  // Resolves admission.* instruments (non-owning; null unbinds).  Counters
  // update as decisions happen; gauges track the live estimator state.
  void BindMetrics(MetricsRegistry* metrics);

  // -- introspection (tests, bench verdicts) --
  double bound() const { return bound_; }
  double speed_ewma() const { return speed_ewma_; }
  double demand_ewma_us() const { return demand_ewma_us_; }
  double interarrival_ewma_us() const { return interarrival_ewma_us_; }
  bool degraded() const { return degraded_; }
  int shed_level() const { return shed_level_; }
  std::uint64_t considered() const { return considered_; }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t rejected_overload() const { return rejected_overload_; }
  std::uint64_t rejected_shed() const { return rejected_shed_; }
  // Full-speed-equivalent microseconds of rejected demand — what the energy
  // ledger attributes as load the platform never had to burn joules on.
  double rejected_work_fs_us() const { return rejected_work_fs_us_; }

  // Device-snapshot support (src/sim/snapshot.h): every estimator, degraded
  // -mode and counter field.  Config-derived tables (step ratios, class
  // ranks) are rebuilt by the constructor and not serialized; metric
  // instruments re-bind through BindMetrics.
  void Snapshot(SnapshotIo& io);

 private:
  void RefreshDegraded(SimTime now);

  AdmissionConfig config_;
  double slo_us_;
  // Effective speed of each step relative to the top step, memory-profile
  // aware (EffectiveBaseHz ratio); precomputed so the tick path is a table
  // lookup.
  std::array<double, kNumClockSteps> step_ratio_{};
  // Shed rank per request class: how many distinct class values are
  // strictly below this class's value.  Degraded mode rejects classes with
  // rank < shed_level_.
  std::vector<int> class_rank_;
  int distinct_values_ = 1;

  // Demand-side estimators.
  double demand_ewma_us_ = 0.0;
  double interarrival_ewma_us_ = 0.0;
  bool have_arrival_ = false;
  SimTime last_arrival_;

  // Supply-side estimator (updated per quantum).
  double speed_ewma_ = 1.0;
  int max_step_ = 0;

  // Degraded-mode state.
  bool degraded_ = false;
  int shed_level_ = 0;
  int last_brownouts_ = 0;
  SimTime shed_until_;
  bool battery_sagging_ = false;

  // Feedback (AIMD) state.
  double bound_;
  int window_outcomes_ = 0;
  int window_violations_ = 0;

  // Decision counters.
  std::uint64_t considered_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_overload_ = 0;
  std::uint64_t rejected_shed_ = 0;
  double rejected_work_fs_us_ = 0.0;

  // Observability instruments (all null until BindMetrics).
  MetricsCounter* ctr_considered_ = nullptr;
  MetricsCounter* ctr_admitted_ = nullptr;
  MetricsCounter* ctr_rejected_overload_ = nullptr;
  MetricsCounter* ctr_rejected_shed_ = nullptr;
  MetricsGauge* gauge_bound_ = nullptr;
  MetricsGauge* gauge_speed_ewma_ = nullptr;
  MetricsGauge* gauge_demand_ewma_us_ = nullptr;
  MetricsGauge* gauge_rejected_work_fs_us_ = nullptr;
};

}  // namespace dcs

#endif  // SRC_WORKLOAD_ADMISSION_H_
