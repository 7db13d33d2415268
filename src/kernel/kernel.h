// The simulated Linux 2.0.30 kernel used on the Itsy.
//
// Reproduces the machinery the paper added for its study:
//   * a round-robin scheduler with 10 ms quanta where "we set the counter to
//     one each time we schedule a process, forcing the scheduler to be
//     called every 10ms" (measured overhead ~6 us per tick, 0.06%);
//   * per-quantum CPU-utilization accounting — the idle task has pid 0 and
//     naps; any non-idle execution (including application spin loops and
//     kernel overhead) counts as busy;
//   * an installable clock-scaling policy module invoked from the clock
//     interrupt with the utilization of the quantum that just ended;
//   * a bounded scheduler activity log (pid, microsecond timestamp, clock
//     rate).
//
// Execution model: tasks are Workload state machines.  Compute actions are
// charged lazily — whenever a segment of uninterrupted execution ends (tick
// preemption, completion, wake-up) the elapsed wall time is converted back
// into base cycles at the frequency that was in effect.  Clock changes only
// happen at quantum boundaries (the policy runs in the clock interrupt), so
// a segment always has a single frequency.

#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/hw/itsy.h"
#include "src/kernel/policy.h"
#include "src/kernel/run_queue.h"
#include "src/kernel/sched_log.h"
#include "src/kernel/task.h"
#include "src/kernel/workload_api.h"
#include "src/obs/metrics.h"
#include "src/sim/fields.h"
#include "src/sim/snapshot.h"
#include "src/sim/trace_sink.h"

namespace dcs {

class FaultInjector;

struct KernelConfig {
  // Scheduling quantum; Linux 2.0.30's default 10 ms (100 Hz).
  SimTime quantum = SimTime::Millis(10);
  // Measured cost of the forced per-tick reschedule.
  SimTime tick_overhead = SimTime::Micros(6);
  // Cost of an explicit yield (sched_yield syscall + context switch).  Must
  // be positive: it is also what prevents two mutually-yielding tasks from
  // livelocking the simulation at a single instant.
  SimTime yield_cost = SimTime::Micros(2);
  // Ring-buffer capacity of the scheduler log.
  std::size_t sched_log_capacity = std::size_t{1} << 18;
  // Seed for per-task RNG streams.
  std::uint64_t rng_seed = 1;
};

// Every member, in declaration order (src/sim/fields.h).
constexpr auto Fields(const KernelConfig*) {
  return std::tuple{&KernelConfig::quantum, &KernelConfig::tick_overhead, &KernelConfig::yield_cost,
                    &KernelConfig::sched_log_capacity, &KernelConfig::rng_seed};
}
static_assert(ListsEveryField<KernelConfig>());

class Kernel {
 public:
  // A failed clock transition is retried at most this many times (after the
  // initial attempt), with exponential backoff in quanta.
  static constexpr int kMaxTransitionRetries = 3;

  // `arena`, when bound, backs the kernel's per-run transient state (sched
  // log ring, run queue); it must outlive the kernel.
  Kernel(Simulator& sim, Itsy& itsy, const KernelConfig& config = {},
         Arena* arena = nullptr);
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- Setup ----------------------------------------------------------------
  // Adds a task; tasks added before Start() begin at time zero.  Returns the
  // pid (1, 2, ...).
  Pid AddTask(std::unique_ptr<Workload> workload);

  // Installs / removes the clock-scaling policy module (non-owning).  Either
  // way the per-quantum call is static (see policy.h): the pointer overload
  // takes a final policy type, registry call sites pass the PolicyDispatch
  // built for the concrete type a spec resolved to.
  template <typename P>
  void InstallPolicy(P* policy) {
    InstallPolicy(PolicyDispatch::For(policy));
  }
  void InstallPolicy(const PolicyDispatch& dispatch) {
    policy_ = dispatch.policy;
    policy_on_quantum_ = dispatch.on_quantum;
    if (policy_ != nullptr) {
      policy_->OnInstall(*this);
    }
  }
  ClockPolicy* policy() const { return policy_; }

  // Schedules the first clock interrupt and dispatches.  Call once.
  void Start();

  // --- Introspection ----------------------------------------------------------
  SimTime Now() const { return sim_.Now(); }
  SimTime quantum() const { return config_.quantum; }
  Simulator& sim() { return sim_; }
  Itsy& itsy() { return itsy_; }

  // Next tick boundary at or after `t` (jiffy rounding for sleeps).
  SimTime JiffyAlign(SimTime t) const;

  Task* FindTask(Pid pid);

  // --- Deadline registry (section 6 future work) -----------------------------
  // Announced-but-unfinished compute work: every live task whose current
  // compute action carries a deadline and still has cycles remaining.  The
  // list lives in a kernel-owned buffer that the next call refills, so the
  // governors that read it every quantum never allocate.  `rates` is the
  // task's own rate row (valid while the task lives), so a governor turns
  // remaining cycles into time at any step with one table read.
  struct PendingDeadline {
    Pid pid = 0;
    double remaining_cycles = 0.0;
    SimTime deadline;
    const MemoryModel::RateRow* rates = nullptr;
  };
  const std::vector<PendingDeadline>& PendingDeadlines() const;

  const SchedLog& sched_log() const { return sched_log_; }
  SchedLog& sched_log() { return sched_log_; }

  // Recorded series: "utilization" (one point per quantum, at quantum start),
  // "work_fs_us" (one point per quantum: microseconds of full-speed-equivalent
  // work executed, i.e. busy task-execution time scaled by step speed /
  // top-step speed — the trace the offline-optimal replay consumes; tick
  // overhead, yield costs and relock stalls are deliberately excluded so the
  // trace never overstates executed work), "freq_mhz" (one point per clock
  // change) and "core_volts" (one point per rail transition).
  TraceSink& sink() { return sink_; }

  // Whether the series above are recorded (default on).  A caller that never
  // reads sink() turns them off before Start(); the tick path then pays one
  // null check per series, as it does for unbound metrics instruments.
  void RecordTraces(bool on) { record_traces_ = on; }

  // Pre-sizes the recorded series for an expected number of quanta so the
  // per-tick Appends never reallocate mid-run.  Capacity only; call before
  // Start().  The change series reserve the worst case, one point per
  // quantum; whoever keeps the sink after the run trims it
  // (TraceSink::Trim, as DeviceSim::Finish does).
  void ReserveTraces(std::size_t quanta);

  // Binds the observability registry (non-owning; may be null to unbind).
  // Instrument handles are resolved once here, so the scheduling hot paths
  // pay only a null check when no registry is attached.  Call before Start().
  void BindMetrics(MetricsRegistry* metrics);
  MetricsRegistry* metrics() const { return metrics_; }

  // Binds the fault injector (non-owning; null unbinds).  Unbound, every
  // scheduling path is byte-identical to the pre-fault kernel.  Call before
  // Start().
  void BindFaults(FaultInjector* faults) { faults_ = faults; }

  // Binds a per-quantum supply observer (non-owning; null unbinds).  The
  // observer runs in the clock interrupt after the policy has applied its
  // request, seeing the step chosen for the quantum now starting, the
  // rail-limited step ceiling, and brownout/battery distress — the feedback
  // signal the admission controller consumes (src/workload/admission.h).
  // Unbound, the tick path is byte-identical to the pre-observer kernel.
  void BindSupplyObserver(SupplyObserver* observer) { supply_observer_ = observer; }
  SupplyObserver* supply_observer() const { return supply_observer_; }

  // Read-only views for the invariant checker.
  const RunQueue& run_queue() const { return run_queue_; }
  const Task* current_task() const { return current_; }
  const std::map<Pid, std::unique_ptr<Task>>& tasks() const { return tasks_; }
  SimTime start_time() const { return start_time_; }

  // Fault diagnostics: whether a failed transition is still awaiting retry,
  // and how many retry attempts have been made in total.
  bool retry_pending() const { return retry_step_.has_value(); }
  std::uint64_t transition_retries() const { return transition_retries_; }

  // --- Device-snapshot image (src/sim/snapshot.h) ----------------------------
  // The complete kernel state — tasks (including their workload machines and
  // RNG streams), run queue, scheduler log, recorded traces, quantum
  // accounting, retry state, and the pending tick / dispatch / completion /
  // wake events.  Save only at a quiescent point (immediately after
  // Simulator::RunUntil).  Loads onto a structurally identical kernel (same
  // tasks added in the same order, metrics bound, traces reserved), after
  // Simulator::RestoreClock() has dropped whatever the previous occupant
  // armed; each pending event is re-armed at its saved time and sequence.
  void Snapshot(SnapshotIo& io);

  // Fleet device divergence: forks the scheduler RNG and every task's
  // workload-jitter RNG into the substream family selected by `stream` (the
  // fleet-global device id).  Called once per device right after LoadState,
  // so clones of a shared warmup image decorrelate from that point on while
  // staying a pure function of (image, device id).
  void ForkRngs(std::uint64_t stream) {
    rng_ = rng_.Fork(stream);
    for (auto& [pid, task] : tasks_) {
      task->rng() = task->rng().Fork(stream);
    }
  }

  // --- Aggregate statistics ---------------------------------------------------
  std::uint64_t quanta_elapsed() const { return quantum_index_; }
  double last_utilization() const { return last_utilization_; }
  SimTime total_busy() const { return total_busy_; }
  SimTime total_idle() const { return total_idle_; }
  // Wall time spent at each clock step.
  const std::array<SimTime, kNumClockSteps>& step_residency() const {
    return step_residency_;
  }

 private:
  // Points the series_* handles at sink_'s series, or nulls them.
  void ResolveSeries();
  // Clock interrupt: account the ended quantum, run the policy, round-robin.
  void Tick();
  // Retries a stuck clock transition once its backoff expires.
  SimTime RetryTransition(SimTime dispatch_at);
  // Charges busy/idle time and compute progress since segment_start_.
  void AccountSegment();
  // Applies a policy request; returns when the CPU may execute again.
  SimTime ApplyRequest(const SpeedRequest& request, SimTime earliest_dispatch);
  // Picks the next task (or idles) and arms its completion event.
  void Dispatch();
  void ArmCompletion();
  void CancelCompletion();
  // Replaces any pending dispatch with one at `at`.
  void ArmDispatch(SimTime at);
  // The dispatch event: the forced reschedule after a tick or a yield.
  void OnDispatch();
  // The current task finished its action: pull next actions from the
  // workload until it blocks, yields, exits, or starts real work.
  void OnCompletion();
  void ProcessNextActions();
  void WakeTask(Pid pid);

  Simulator& sim_;
  Itsy& itsy_;
  KernelConfig config_;

  std::map<Pid, std::unique_ptr<Task>> tasks_;
  Pid next_pid_ = 1;
  RunQueue run_queue_;
  Task* current_ = nullptr;

  ClockPolicy* policy_ = nullptr;
  PolicyQuantumFn policy_on_quantum_ = nullptr;
  FaultInjector* faults_ = nullptr;
  SupplyObserver* supply_observer_ = nullptr;
  // Memory-latency multiplier for the current quantum (1.0 = no spike).
  double mem_spike_factor_ = 1.0;
  // Bounded-backoff retry state for a transition the hardware failed.
  std::optional<int> retry_step_;
  int retry_attempts_ = 0;
  std::uint64_t retry_due_quantum_ = 0;
  std::uint64_t transition_retries_ = 0;
  SchedLog sched_log_;
  TraceSink sink_;
  bool record_traces_ = true;
  // The per-tick series, resolved once (map nodes are stable) so the tick
  // path never does a map lookup; all null when traces are not recorded.
  TraceSeries* series_utilization_ = nullptr;
  TraceSeries* series_work_fs_us_ = nullptr;
  TraceSeries* series_freq_mhz_ = nullptr;
  TraceSeries* series_core_volts_ = nullptr;
  Rng rng_;
  // PendingDeadlines()'s reused buffer (scratch, never snapshotted).
  mutable std::vector<PendingDeadline> pending_deadlines_;

  // Observability instruments (all null until BindMetrics).
  MetricsRegistry* metrics_ = nullptr;
  MetricsCounter* ctr_quanta_ = nullptr;
  MetricsCounter* ctr_dispatches_ = nullptr;
  MetricsCounter* ctr_idle_dispatches_ = nullptr;
  MetricsCounter* ctr_yields_ = nullptr;
  MetricsCounter* ctr_sleeps_ = nullptr;
  MetricsCounter* ctr_wakeups_ = nullptr;
  MetricsCounter* ctr_exits_ = nullptr;
  MetricsCounter* ctr_policy_decisions_ = nullptr;
  MetricsCounter* ctr_policy_step_up_ = nullptr;
  MetricsCounter* ctr_policy_step_down_ = nullptr;
  LogHistogram* hist_quantum_busy_us_ = nullptr;

  bool started_ = false;
  SimTime start_time_;
  SimTime segment_start_;
  EventId completion_event_ = kInvalidEventId;
  EventId dispatch_event_ = kInvalidEventId;
  EventId tick_event_ = kInvalidEventId;

  SimTime quantum_start_;
  SimTime busy_in_quantum_;
  // Full-speed-equivalent work executed this quantum, in microseconds (see
  // the "work_fs_us" series note above).
  double work_in_quantum_us_ = 0.0;
  std::uint64_t quantum_index_ = 0;
  double last_utilization_ = 0.0;
  SimTime total_busy_;
  SimTime total_idle_;
  std::array<SimTime, kNumClockSteps> step_residency_{};
};

}  // namespace dcs

#endif  // SRC_KERNEL_KERNEL_H_
