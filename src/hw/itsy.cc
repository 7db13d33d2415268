#include "src/hw/itsy.h"

#include <algorithm>

#include "src/fault/fault_injector.h"

namespace dcs {

Itsy::Itsy(Simulator& sim, const ItsyConfig& config, Arena* arena)
    : sim_(sim), power_model_(config.power),
      cpu_(config.initial_step, config.clock_switch_stall), tape_(arena) {
  if (config.initial_voltage == CoreVoltage::kLow) {
    regulator_.Request(CoreVoltage::kLow, sim_.Now());
  }
  if (config.battery) {
    battery_.emplace(*config.battery);
  }
  last_battery_update_ = sim_.Now();
  RefreshPower();
}

void Itsy::BindMetrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    ctr_clock_changes_ = ctr_voltage_transitions_ = ctr_power_segments_ = nullptr;
    hist_switch_stall_us_ = nullptr;
    return;
  }
  ctr_clock_changes_ = &metrics->Counter("hw.clock_changes");
  ctr_voltage_transitions_ = &metrics->Counter("hw.voltage_transitions");
  ctr_power_segments_ = &metrics->Counter("hw.power_segments");
  hist_switch_stall_us_ = &metrics->Histogram("hw.clock_switch_stall_us");
}

SimTime Itsy::SetClockStep(int new_step) {
  new_step = ClockTable::Clamp(new_step);
  last_clock_change_failed_ = false;
  if (new_step == cpu_.step()) {
    return sim_.Now();
  }
  if (!VoltageRegulator::StepAllowedAt(regulator_.target(), new_step)) {
    // Raise the rail first; upward transitions are instantaneous.  This
    // supersedes any in-flight down-settle, so an armed brownout must die
    // with it.
    CancelBrownout();
    regulator_.Request(CoreVoltage::kHigh, sim_.Now());
  }
  SimTime stall_end;
  if (faults_ != nullptr && faults_->ClockChangeFails()) {
    // Failed transition: the PLL pays the (possibly stretched) relock
    // lockout but the divider sticks at the old step.
    last_clock_change_failed_ = true;
    stall_end = cpu_.ForceStall(faults_->ClockStall(cpu_.switch_stall()), sim_.Now());
  } else if (faults_ != nullptr) {
    stall_end =
        cpu_.BeginClockChange(new_step, sim_.Now(), faults_->ClockStall(cpu_.switch_stall()));
  } else {
    stall_end = cpu_.BeginClockChange(new_step, sim_.Now());
  }
  if (ctr_clock_changes_ != nullptr && !last_clock_change_failed_) {
    ctr_clock_changes_->Inc();
    hist_switch_stall_us_->Observe((stall_end - sim_.Now()).ToMicrosF());
  }
  RefreshPower();
  return stall_end;
}

bool Itsy::SetVoltage(CoreVoltage v) {
  if (!VoltageRegulator::StepAllowedAt(v, cpu_.step())) {
    return false;
  }
  if (v != regulator_.target()) {
    CancelBrownout();
    if (faults_ != nullptr && v == CoreVoltage::kLow) {
      const SimTime settle = faults_->SettleTime(kVoltageDownSettle);
      regulator_.Request(v, sim_.Now(), settle);
      if (faults_->BrownoutDuringSettle()) {
        // The rail undershoots hard enough mid-settle to brown the core out;
        // model it as a forced step-down halfway through the interval.
        ArmBrownout(sim_.Now() + settle / 2);
      }
    } else {
      regulator_.Request(v, sim_.Now());
    }
    if (ctr_voltage_transitions_ != nullptr) {
      ctr_voltage_transitions_->Inc();
    }
    RefreshPower();
  }
  return true;
}

void Itsy::CancelBrownout() {
  if (brownout_event_ != kInvalidEventId) {
    sim_.Cancel(brownout_event_);
    brownout_event_ = kInvalidEventId;
  }
}

void Itsy::ArmBrownout(SimTime at) {
  brownout_event_ = sim_.At(at, [this] { OnBrownout(); });
}

void Itsy::OnBrownout() {
  brownout_event_ = kInvalidEventId;
  ++brownouts_;
  // The hardware dropped the divider on its own — no fail draw applies.  The
  // step lands kBrownoutStepDrop below the 1.23 V-safe position and the core
  // pays a normal relock.
  const int safe = std::min(cpu_.step(), kMaxStepAtLowVoltage);
  cpu_.BeginClockChange(safe - FaultInjector::kBrownoutStepDrop, sim_.Now());
  RefreshPower();
}

void Itsy::SetExecState(ExecState state) {
  if (state == cpu_.state()) {
    return;
  }
  cpu_.SetState(state);
  RefreshPower();
}

void Itsy::SetAudio(bool on) {
  if (peripherals_.audio_on == on) {
    return;
  }
  peripherals_.audio_on = on;
  RefreshPower();
}

void Itsy::SetDisplay(bool on) {
  if (peripherals_.display_on == on) {
    return;
  }
  peripherals_.display_on = on;
  RefreshPower();
}

double Itsy::CurrentSystemWatts() const {
  return power_model_.SystemWatts(cpu_.state(), cpu_.step(),
                                  VoltageVolts(regulator_.target()), peripherals_);
}

void Itsy::SyncBattery() {
  const SimTime now = sim_.Now();
  if (battery_) {
    // Every power change syncs first, so the last sync normally lies in the
    // open (last) segment and its power is read without a search.  Other
    // cases, such as a restored image, take WattsAt's search; both paths
    // return the same value.
    const PowerTape::SegmentVector& segs = tape_.segments();
    const double watts = !segs.empty() && last_battery_update_ >= segs.back().start
                             ? segs.back().watts
                             : tape_.WattsAt(last_battery_update_);
    battery_->Drain(watts, now - last_battery_update_);
  }
  last_battery_update_ = now;
}

namespace {
constexpr std::uint32_t kItsyTag = 0x49545359u;  // "ITSY"
}  // namespace

void Itsy::Snapshot(SnapshotIo& io) {
  io.Tag(kItsyTag);
  cpu_.Snapshot(io);
  regulator_.Snapshot(io);
  io(peripherals_.display_on, peripherals_.audio_on);
  tape_.Snapshot(io);
  gpio_.Snapshot(io);
  // An image taken with a battery loads only onto a stack with one, and
  // the reverse.
  if (!io.Expect(battery_.has_value())) {
    return;
  }
  if (battery_) {
    battery_->Snapshot(io);
  }
  io(last_battery_update_, last_clock_change_failed_);
  io.As<std::uint32_t>(brownouts_);
  io.Pending<&Itsy::ArmBrownout>(brownout_event_, this);
}

void Itsy::RefreshPower() {
  // Drain the battery over the segment that just ended, at that segment's
  // power (the tape still holds the old value).
  SyncBattery();
  const std::size_t segments_before = tape_.size();
  tape_.Set(sim_.Now(), CurrentSystemWatts());
  if (ctr_power_segments_ != nullptr && tape_.size() > segments_before) {
    ctr_power_segments_->Inc();
  }
}

}  // namespace dcs
