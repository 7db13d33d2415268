#include "src/kernel/kernel.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "src/fault/fault_injector.h"

namespace dcs {
namespace {

// A workload returning this many zero-duration actions at one instant is
// broken (e.g. SpinUntil a past time in a loop); fail loudly.
constexpr int kMaxInstantActions = 100000;

}  // namespace

Kernel::Kernel(Simulator& sim, Itsy& itsy, const KernelConfig& config, Arena* arena)
    : sim_(sim), itsy_(itsy), config_(config),
      run_queue_(arena), sched_log_(config.sched_log_capacity, arena),
      rng_(config.rng_seed) {}

void Kernel::ReserveTraces(std::size_t quanta) {
  // All four per-run series: utilization/work get one point per quantum,
  // freq/volts at most one per quantum (policies decide at tick boundaries)
  // plus the Start() seed point.  freq/volts record only clock and rail
  // changes, so they mostly fill a sliver of this worst case.
  sink_.Series("utilization").Reserve(quanta + 1);
  sink_.Series("work_fs_us").Reserve(quanta + 1);
  sink_.Series("freq_mhz").Reserve(quanta + 2);
  sink_.Series("core_volts").Reserve(quanta + 2);
}

void Kernel::BindMetrics(MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) {
    ctr_quanta_ = ctr_dispatches_ = ctr_idle_dispatches_ = ctr_yields_ = ctr_sleeps_ =
        ctr_wakeups_ = ctr_exits_ = ctr_policy_decisions_ = ctr_policy_step_up_ =
            ctr_policy_step_down_ = nullptr;
    hist_quantum_busy_us_ = nullptr;
    return;
  }
  ctr_quanta_ = &metrics_->Counter("kernel.quanta");
  ctr_dispatches_ = &metrics_->Counter("kernel.dispatches");
  ctr_idle_dispatches_ = &metrics_->Counter("kernel.idle_dispatches");
  ctr_yields_ = &metrics_->Counter("kernel.yields");
  ctr_sleeps_ = &metrics_->Counter("kernel.sleeps");
  ctr_wakeups_ = &metrics_->Counter("kernel.wakeups");
  ctr_exits_ = &metrics_->Counter("kernel.task_exits");
  ctr_policy_decisions_ = &metrics_->Counter("governor.decisions");
  ctr_policy_step_up_ = &metrics_->Counter("governor.step_up");
  ctr_policy_step_down_ = &metrics_->Counter("governor.step_down");
  hist_quantum_busy_us_ = &metrics_->Histogram("kernel.quantum_busy_us");
}

Pid Kernel::AddTask(std::unique_ptr<Workload> workload) {
  const Pid pid = next_pid_++;
  auto task = std::make_unique<Task>(pid, std::move(workload), rng_.Fork());
  run_queue_.Push(pid);
  tasks_.emplace(pid, std::move(task));
  if (started_ && current_ == nullptr && dispatch_event_ == kInvalidEventId) {
    AccountSegment();
    Dispatch();
  }
  return pid;
}

void Kernel::Start() {
  assert(!started_ && "Kernel::Start() called twice");
  started_ = true;
  start_time_ = sim_.Now();
  quantum_start_ = start_time_;
  segment_start_ = start_time_;
  ResolveSeries();
  if (series_freq_mhz_ != nullptr) {
    series_freq_mhz_->Append(start_time_, itsy_.frequency_mhz());
    series_core_volts_->Append(start_time_, VoltageVolts(itsy_.voltage()));
  }
  tick_event_ = sim_.At<&Kernel::Tick>(start_time_ + config_.quantum, this);
  Dispatch();
}

SimTime Kernel::JiffyAlign(SimTime t) const {
  if (t <= start_time_) {
    return start_time_;
  }
  const std::int64_t q = config_.quantum.nanos();
  const std::int64_t delta = (t - start_time_).nanos();
  const std::int64_t k = (delta + q - 1) / q;
  return start_time_ + SimTime::Nanos(k * q);
}

Task* Kernel::FindTask(Pid pid) {
  const auto it = tasks_.find(pid);
  return it == tasks_.end() ? nullptr : it->second.get();
}

void Kernel::ResolveSeries() {
  // Map nodes are stable, so re-resolving is idempotent on a warm kernel and
  // necessary on a fresh one (Start() is never called on the restore path).
  if (!record_traces_) {
    series_utilization_ = series_work_fs_us_ = series_freq_mhz_ = series_core_volts_ = nullptr;
    return;
  }
  series_utilization_ = &sink_.Series("utilization");
  series_work_fs_us_ = &sink_.Series("work_fs_us");
  series_freq_mhz_ = &sink_.Series("freq_mhz");
  series_core_volts_ = &sink_.Series("core_volts");
}

const std::vector<Kernel::PendingDeadline>& Kernel::PendingDeadlines() const {
  std::vector<PendingDeadline>& pending = pending_deadlines_;
  pending.clear();
  for (const auto& [pid, task] : tasks_) {
    if (task->state() == TaskState::kExited) {
      continue;
    }
    const Action& action = task->action();
    if (action.kind == Action::Kind::kCompute && action.has_deadline &&
        task->remaining_cycles() > 0.0) {
      pending.push_back(
          PendingDeadline{pid, task->remaining_cycles(), action.deadline, &task->rates()});
    }
  }
  return pending;
}

void Kernel::AccountSegment() {
  const SimTime now = sim_.Now();
  if (now <= segment_start_) {
    // Inside a prepaid overhead/stall gap (or zero time elapsed).
    return;
  }
  const SimTime elapsed = now - segment_start_;
  step_residency_[static_cast<std::size_t>(itsy_.step())] += elapsed;
  if (current_ != nullptr) {
    busy_in_quantum_ += elapsed;
    work_in_quantum_us_ += elapsed.ToMicrosF() * ClockTable::FrequencyMhz(itsy_.step()) /
                           ClockTable::FrequencyMhz(ClockTable::MaxStep());
    total_busy_ += elapsed;
    current_->AddCpuTime(elapsed);
    if (current_->action().kind == Action::Kind::kCompute) {
      double work = current_->rates().WorkCompletedIn(elapsed, itsy_.step());
      if (mem_spike_factor_ != 1.0) {
        work /= mem_spike_factor_;
      }
      current_->ConsumeCycles(work);
    }
  } else {
    total_idle_ += elapsed;
  }
  segment_start_ = now;
}

void Kernel::Tick() {
  tick_event_ = kInvalidEventId;
  const SimTime now = sim_.Now();
  AccountSegment();
  CancelCompletion();

  // Utilization of the quantum that just ended.
  const double quantum_seconds = config_.quantum.ToSeconds();
  double utilization = busy_in_quantum_.ToSeconds() / quantum_seconds;
  utilization = std::clamp(utilization, 0.0, 1.0);
  last_utilization_ = utilization;
  if (series_utilization_ != nullptr) {
    series_utilization_->Append(quantum_start_, utilization);
    series_work_fs_us_->Append(quantum_start_, work_in_quantum_us_);
  }
  if (ctr_quanta_ != nullptr) {
    ctr_quanta_->Inc();
    hist_quantum_busy_us_->Observe(static_cast<double>(busy_in_quantum_.micros()));
  }

  UtilizationSample sample;
  sample.quantum_start = quantum_start_;
  sample.quantum_end = now;
  sample.utilization = utilization;
  sample.step = itsy_.step();
  sample.voltage = itsy_.voltage();
  sample.quantum_index = quantum_index_;

  busy_in_quantum_ = SimTime::Zero();
  work_in_quantum_us_ = 0.0;
  quantum_start_ = now;
  ++quantum_index_;
  if (faults_ != nullptr) {
    // The next interrupt may be jittered or missed entirely; the memory
    // subsystem may spike for the quantum now starting.
    tick_event_ = sim_.At<&Kernel::Tick>(now + faults_->TickDelay(config_.quantum), this);
    mem_spike_factor_ = faults_->QuantumMemSpikeFactor();
  } else {
    tick_event_ = sim_.At<&Kernel::Tick>(now + config_.quantum, this);
  }

  // Policy runs in the clock interrupt; the forced reschedule costs
  // tick_overhead of busy time before anything can execute.
  SimTime dispatch_at = now + config_.tick_overhead;
  if (policy_ != nullptr) {
    const int step_before = itsy_.step();
    // Static dispatch: the thunk was built from the policy's concrete type
    // at install time (see PolicyDispatch in policy.h).
    const std::optional<SpeedRequest> request = policy_on_quantum_(policy_, sample);
    if (request.has_value() && !request->Empty()) {
      dispatch_at = ApplyRequest(*request, dispatch_at);
    }
    if (ctr_policy_decisions_ != nullptr) {
      ctr_policy_decisions_->Inc();
      if (itsy_.step() > step_before) {
        ctr_policy_step_up_->Inc();
      } else if (itsy_.step() < step_before) {
        ctr_policy_step_down_->Inc();
      }
    }
  }
  if (retry_step_.has_value() && quantum_index_ >= retry_due_quantum_) {
    dispatch_at = RetryTransition(dispatch_at);
  }

  if (supply_observer_ != nullptr) {
    // Publish what the platform is supplying for the quantum now starting.
    // SyncBattery() only integrates pending drain; it appends no tape
    // segment, so reading the depth of discharge here perturbs nothing.
    SupplySample supply;
    supply.at = sample.quantum_start;
    supply.utilization = utilization;
    supply.step = itsy_.step();
    supply.max_step = itsy_.voltage() == CoreVoltage::kLow ? kMaxStepAtLowVoltage
                                                           : ClockTable::MaxStep();
    supply.brownouts = itsy_.brownouts();
    if (itsy_.battery() != nullptr) {
      itsy_.SyncBattery();
      supply.battery_dod = itsy_.battery()->DepthOfDischarge();
    }
    supply_observer_->OnQuantum(supply);
  }

  // Prepay the overhead (and any relock stall) as busy time: the CPU is not
  // in the idle loop, which is exactly how the paper's accounting saw it.
  const SimTime gap = dispatch_at - now;
  busy_in_quantum_ += gap;
  total_busy_ += gap;
  step_residency_[static_cast<std::size_t>(itsy_.step())] += gap;
  segment_start_ = dispatch_at;

  // Round-robin: the preempted task goes to the back of the queue.
  if (current_ != nullptr) {
    run_queue_.Push(current_->pid());
    current_ = nullptr;
  }

  // A clock-change stall can outlast the quantum, in which case the previous
  // tick's dispatch is still pending; replace it rather than double-dispatch.
  ArmDispatch(dispatch_at);
}

void Kernel::ArmDispatch(SimTime at) {
  if (dispatch_event_ != kInvalidEventId) {
    sim_.Cancel(dispatch_event_);
  }
  dispatch_event_ = sim_.At<&Kernel::OnDispatch>(at, this);
}

void Kernel::OnDispatch() {
  dispatch_event_ = kInvalidEventId;
  Dispatch();
}

SimTime Kernel::RetryTransition(SimTime dispatch_at) {
  const int target = *retry_step_;
  if (target == itsy_.step()) {
    // Something else (e.g. a brownout step-down) already landed us there.
    retry_step_.reset();
    return dispatch_at;
  }
  ++transition_retries_;
  const int transitions_before = itsy_.voltage_transitions();
  const SimTime stall_end = itsy_.SetClockStep(target);
  dispatch_at = std::max(dispatch_at, stall_end);
  if (itsy_.last_clock_change_failed()) {
    if (++retry_attempts_ >= kMaxTransitionRetries) {
      // Give up; the installed policy will issue a fresh request when the
      // utilization warrants one.
      retry_step_.reset();
    } else {
      retry_due_quantum_ = quantum_index_ + (std::uint64_t{1} << retry_attempts_);
    }
  } else {
    if (series_freq_mhz_ != nullptr) {
      series_freq_mhz_->Append(sim_.Now(), itsy_.frequency_mhz());
    }
    retry_step_.reset();
  }
  if (series_core_volts_ != nullptr && itsy_.voltage_transitions() != transitions_before) {
    series_core_volts_->Append(sim_.Now(), VoltageVolts(itsy_.voltage()));
  }
  return dispatch_at;
}

SimTime Kernel::ApplyRequest(const SpeedRequest& request, SimTime earliest_dispatch) {
  const int transitions_before = itsy_.voltage_transitions();
  // Raising the rail first is always safe (instantaneous); dropping it is
  // refused by the hardware layer when the (new) step is too fast.
  if (request.voltage.has_value() && *request.voltage == CoreVoltage::kHigh) {
    itsy_.SetVoltage(CoreVoltage::kHigh);
  }
  if (request.step.has_value()) {
    // A fresh policy decision supersedes any pending retry.
    retry_step_.reset();
    const int old_step = itsy_.step();
    const SimTime stall_end = itsy_.SetClockStep(*request.step);
    if (itsy_.last_clock_change_failed()) {
      // The hardware paid the relock but the step stuck.  Arm a bounded
      // exponential-backoff retry at the next quantum boundary; the policy
      // keeps seeing the true (old) step in its samples meanwhile.
      earliest_dispatch = std::max(earliest_dispatch, stall_end);
      retry_step_ = ClockTable::Clamp(*request.step);
      retry_attempts_ = 0;
      retry_due_quantum_ = quantum_index_ + 1;
    } else if (itsy_.step() != old_step) {
      if (series_freq_mhz_ != nullptr) {
        series_freq_mhz_->Append(sim_.Now(), itsy_.frequency_mhz());
      }
      earliest_dispatch = std::max(earliest_dispatch, stall_end);
    }
  }
  if (request.voltage.has_value() && *request.voltage == CoreVoltage::kLow) {
    itsy_.SetVoltage(CoreVoltage::kLow);
  }
  if (series_core_volts_ != nullptr && itsy_.voltage_transitions() != transitions_before) {
    series_core_volts_->Append(sim_.Now(), VoltageVolts(itsy_.voltage()));
  }
  return earliest_dispatch;
}

void Kernel::Dispatch() {
  const SimTime now = sim_.Now();
  assert(current_ == nullptr && "Dispatch() with a task still current");
  if (run_queue_.Empty()) {
    itsy_.SetExecState(ExecState::kNap);
    sched_log_.Record(now, kIdlePid, itsy_.step());
    if (ctr_idle_dispatches_ != nullptr) {
      ctr_idle_dispatches_->Inc();
    }
    return;
  }
  const Pid pid = run_queue_.Pop();
  Task* task = FindTask(pid);
  assert(task != nullptr && task->state() == TaskState::kRunnable);
  if (ctr_dispatches_ != nullptr) {
    ctr_dispatches_->Inc();
  }
  current_ = task;
  current_->CountDispatch();
  itsy_.SetExecState(ExecState::kBusy);
  sched_log_.Record(now, pid, itsy_.step());
  segment_start_ = now;
  if (current_->action().kind == Action::Kind::kCompute &&
      current_->remaining_cycles() > 0.0) {
    ArmCompletion();
  } else if (current_->action().kind == Action::Kind::kSpinUntil &&
             current_->action().until > now) {
    ArmCompletion();
  } else {
    // Fresh task or an action that already ran out: ask the workload.
    ProcessNextActions();
  }
}

void Kernel::ArmCompletion() {
  assert(current_ != nullptr);
  SimTime at;
  switch (current_->action().kind) {
    case Action::Kind::kCompute: {
      SimTime wall = current_->rates().WallTimeForWork(current_->remaining_cycles(), itsy_.step());
      if (mem_spike_factor_ != 1.0) {
        wall = SimTime::FromSecondsF(wall.ToSeconds() * mem_spike_factor_);
      }
      at = sim_.Now() + wall;
      break;
    }
    case Action::Kind::kSpinUntil:
      at = std::max(sim_.Now(), current_->action().until);
      break;
    default:
      assert(false && "ArmCompletion on a non-running action");
      return;
  }
  completion_event_ = sim_.At<&Kernel::OnCompletion>(at, this);
}

void Kernel::CancelCompletion() {
  if (completion_event_ != kInvalidEventId) {
    sim_.Cancel(completion_event_);
    completion_event_ = kInvalidEventId;
  }
}

void Kernel::OnCompletion() {
  completion_event_ = kInvalidEventId;
  AccountSegment();
  ProcessNextActions();
}

void Kernel::ProcessNextActions() {
  assert(current_ != nullptr);
  const SimTime now = sim_.Now();
  for (int spins = 0; spins < kMaxInstantActions; ++spins) {
    WorkloadContext ctx{now, &current_->rng(), this};
    const Action action = current_->workload().Next(ctx);
    current_->set_action(action);
    switch (action.kind) {
      case Action::Kind::kCompute:
        if (action.base_cycles <= 0.0) {
          continue;
        }
        ArmCompletion();
        return;
      case Action::Kind::kSpinUntil:
        if (action.until <= now) {
          continue;
        }
        ArmCompletion();
        return;
      case Action::Kind::kSleepUntil: {
        const SimTime wake = action.jiffy_rounded ? JiffyAlign(action.until) : action.until;
        if (wake <= now) {
          continue;
        }
        Task* task = current_;
        task->set_state(TaskState::kSleeping);
        if (ctr_sleeps_ != nullptr) {
          ctr_sleeps_->Inc();
        }
        task->set_wake_event(sim_.At<&Kernel::WakeTask>(wake, this, task->pid()));
        current_ = nullptr;
        Dispatch();
        return;
      }
      case Action::Kind::kYield: {
        if (run_queue_.Empty()) {
          // Nothing else to run: yield returns immediately.
          continue;
        }
        Task* task = current_;
        current_ = nullptr;
        run_queue_.Push(task->pid());
        if (ctr_yields_ != nullptr) {
          ctr_yields_->Inc();
        }
        // The yield syscall and context switch cost real (busy) time; the
        // next task dispatches after it.  Charging it here also guarantees
        // simulated time advances even if every task yields in a loop.
        const SimTime resume = now + config_.yield_cost;
        busy_in_quantum_ += config_.yield_cost;
        total_busy_ += config_.yield_cost;
        step_residency_[static_cast<std::size_t>(itsy_.step())] += config_.yield_cost;
        segment_start_ = resume;
        ArmDispatch(resume);
        return;
      }
      case Action::Kind::kExit: {
        current_->set_state(TaskState::kExited);
        current_ = nullptr;
        if (ctr_exits_ != nullptr) {
          ctr_exits_->Inc();
        }
        Dispatch();
        return;
      }
    }
  }
  // A workload that never lets time advance would otherwise re-enter this
  // loop every quantum forever; fail the run in every build type.
  throw std::runtime_error("workload produced too many instantaneous actions");
}

void Kernel::WakeTask(Pid pid) {
  Task* task = FindTask(pid);
  assert(task != nullptr && task->state() == TaskState::kSleeping);
  task->set_state(TaskState::kRunnable);
  task->set_wake_event(kInvalidEventId);
  run_queue_.Push(pid);
  if (ctr_wakeups_ != nullptr) {
    ctr_wakeups_->Inc();
  }
  if (current_ == nullptr && dispatch_event_ == kInvalidEventId) {
    // CPU was idle: dispatch immediately (idle wake-up path).
    AccountSegment();
    Dispatch();
  }
}

namespace {
constexpr std::uint32_t kKernelTag = 0x4B45524Eu;  // "KERN"
}  // namespace

void Kernel::Snapshot(SnapshotIo& io) {
  io.Tag(kKernelTag);
  rng_.Snapshot(io);
  io.As<std::int64_t>(next_pid_);
  if (!io.Expect<std::uint64_t>(tasks_.size())) {
    return;
  }
  for (auto& [pid, task] : tasks_) {
    if (!io.Expect<std::int64_t>(pid)) {
      return;
    }
    task->Snapshot(io, this);
    io.Pending<&Kernel::WakeTask>(task->wake_event(), this, pid);
  }
  run_queue_.Snapshot(io);
  Pid current_pid = current_ != nullptr ? current_->pid() : -1;
  io.As<std::int64_t>(current_pid);
  if (io.loading()) {
    current_ = current_pid < 0 ? nullptr : FindTask(current_pid);
  }
  io(mem_spike_factor_);
  io.Optional<std::int64_t>(retry_step_);
  // RetryTransition shifts by the count, so only a count it can reach loads.
  io.Index(retry_attempts_, kMaxTransitionRetries);
  io(retry_due_quantum_, transition_retries_);
  sched_log_.Snapshot(io);
  sink_.Snapshot(io);
  io(started_, start_time_, segment_start_);
  if (io.loading()) {
    ResolveSeries();
  }
  io.Pending<&Kernel::Tick>(tick_event_, this);
  io.Pending<&Kernel::OnDispatch>(dispatch_event_, this);
  io.Expect<bool>(dispatch_event_ != kInvalidEventId);
  io.Pending<&Kernel::OnCompletion>(completion_event_, this);
  io(quantum_start_, busy_in_quantum_, work_in_quantum_us_, quantum_index_, last_utilization_,
     total_busy_, total_idle_, step_residency_);
}

}  // namespace dcs
