#include "src/fault/invariants.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "src/hw/clock_table.h"
#include "src/hw/voltage_regulator.h"
#include "src/kernel/run_queue.h"
#include "src/kernel/task.h"
#include "src/obs/energy_ledger.h"

namespace dcs {
namespace {

std::string TimeTag(SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "[t=%.6fs] ", t.ToSeconds());
  return buf;
}

}  // namespace

void InvariantChecker::Fail(const std::string& message) {
  ++violation_count_;
  if (violations_.size() < kMaxStoredViolations) {
    violations_.push_back(TimeTag(sim_.Now()) + message);
  }
}

void InvariantChecker::Check() {
  ++checks_;
  CheckTime();
  CheckClockAndRail();
  CheckRunQueue();
  CheckAccounting();
  CheckTape();
  last_now_ = sim_.Now();
  last_busy_ = kernel_.total_busy();
  last_idle_ = kernel_.total_idle();
  has_last_ = true;
}

void InvariantChecker::CheckTime() {
  if (has_last_ && sim_.Now() < last_now_) {
    Fail("sim time went backwards (was " + std::to_string(last_now_.nanos()) + " ns, now " +
         std::to_string(sim_.Now().nanos()) + " ns)");
  }
}

void InvariantChecker::CheckClockAndRail() {
  const int step = itsy_.step();
  if (step < 0 || step >= kNumClockSteps) {
    Fail("clock step " + std::to_string(step) + " outside the clock table");
  }
  if (itsy_.voltage() == CoreVoltage::kLow && step > kMaxStepAtLowVoltage) {
    Fail("step " + std::to_string(step) + " selected while the rail targets 1.23 V (max safe " +
         std::to_string(kMaxStepAtLowVoltage) + ")");
  }
}

void InvariantChecker::CheckRunQueue() {
  const auto& tasks = kernel_.tasks();
  std::unordered_set<Pid> seen;
  for (const Pid pid : kernel_.run_queue().pids()) {
    if (!seen.insert(pid).second) {
      Fail("pid " + std::to_string(pid) + " queued twice");
    }
    const auto it = tasks.find(pid);
    if (it == tasks.end()) {
      Fail("queued pid " + std::to_string(pid) + " does not exist");
      continue;
    }
    if (it->second->state() != TaskState::kRunnable) {
      Fail("queued pid " + std::to_string(pid) + " is not runnable");
    }
  }
  const Task* current = kernel_.current_task();
  if (current != nullptr) {
    if (current->state() != TaskState::kRunnable) {
      Fail("dispatched pid " + std::to_string(current->pid()) + " is not runnable");
    }
    if (seen.count(current->pid()) != 0) {
      Fail("dispatched pid " + std::to_string(current->pid()) + " is also queued");
    }
  }
}

void InvariantChecker::CheckAccounting() {
  const SimTime busy = kernel_.total_busy();
  const SimTime idle = kernel_.total_idle();
  if (has_last_ && (busy < last_busy_ || idle < last_idle_)) {
    Fail("busy/idle accounting went backwards");
  }
  // busy + idle covers closed quanta plus prepaid dispatch gaps, so allow two
  // quanta of slack over elapsed wall time.
  const SimTime elapsed = sim_.Now() - kernel_.start_time();
  if (busy + idle > elapsed + kernel_.quantum() * 2) {
    Fail("accounted time " + std::to_string((busy + idle).nanos()) +
         " ns exceeds elapsed wall time " + std::to_string(elapsed.nanos()) + " ns");
  }
}

void InvariantChecker::CheckTape() {
  const auto& segments = itsy_.tape().segments();
  if (segments.empty()) {
    return;
  }
  if (segments.size() < last_tape_segments_) {
    Fail("power tape lost segments");
  }
  // Only the suffix appended since the previous check needs scanning.
  std::size_t begin = last_tape_segments_ > 0 ? last_tape_segments_ - 1 : 0;
  begin = std::min(begin, segments.size() - 1);
  SimTime prev = segments[begin].start;
  for (std::size_t i = begin + 1; i < segments.size(); ++i) {
    if (segments[i].start < prev) {
      Fail("power tape segment " + std::to_string(i) + " starts before its predecessor");
    }
    prev = segments[i].start;
  }
  if (segments.back().start > sim_.Now()) {
    Fail("power tape segment starts in the future");
  }
  if (last_tape_segments_ > 0 && segments[last_tape_segments_ - 1].start < last_tape_start_) {
    Fail("power tape rewrote history");
  }
  last_tape_segments_ = segments.size();
  last_tape_start_ = segments.back().start;
}

void InvariantChecker::CheckEnergyConservation(const std::vector<SchedLogEntry>& sched,
                                               SimTime begin, SimTime end) {
  ++checks_;
  const EnergyAttribution attr = EnergyLedger::Attribute(itsy_.tape(), sched, begin, end);
  const double recovered = attr.attributed_joules + attr.unattributed_joules;
  const double tolerance = kEnergyTolerance * std::max(1.0, std::fabs(attr.total_joules));
  if (std::fabs(recovered - attr.total_joules) > tolerance) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "energy not conserved: attributed %.12g J + unattributed %.12g J != total "
                  "%.12g J",
                  attr.attributed_joules, attr.unattributed_joules, attr.total_joules);
    Fail(buf);
  }
}

}  // namespace dcs
