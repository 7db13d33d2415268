#include "src/workload/admission.h"

#include <algorithm>
#include <utility>

namespace dcs {

const char* AdmissionPolicyName(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kNone:
      return "none";
    case AdmissionPolicy::kStaticU:
      return "static-u";
    case AdmissionPolicy::kFeedback:
      return "feedback";
  }
  return "?";
}

AdmissionController::AdmissionController(const AdmissionConfig& config, SimTime slo,
                                         double rate_hint_rps, const MemoryProfile& profile,
                                         std::vector<double> class_values)
    : config_(config), slo_us_(slo.ToMicrosF()), bound_(config.utilization_bound) {
  const double top_hz = MemoryModel::EffectiveBaseHz(ClockTable::MaxStep(), profile);
  for (int k = 0; k < kNumClockSteps; ++k) {
    step_ratio_[static_cast<std::size_t>(k)] =
        MemoryModel::EffectiveBaseHz(k, profile) / top_hz;
  }
  max_step_ = ClockTable::MaxStep();

  // Shed rank = number of distinct class values strictly below this class.
  class_rank_.reserve(class_values.size());
  std::vector<double> sorted = class_values;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  distinct_values_ = static_cast<int>(sorted.size());
  for (const double v : class_values) {
    const auto below = std::lower_bound(sorted.begin(), sorted.end(), v) - sorted.begin();
    class_rank_.push_back(static_cast<int>(below));
  }

  if (rate_hint_rps > 0.0) {
    interarrival_ewma_us_ = 1e6 / rate_hint_rps;
  }
}

void AdmissionController::RefreshDegraded(SimTime now) {
  const bool brownout_active = now < shed_until_;
  if (!brownout_active && !battery_sagging_) {
    degraded_ = false;
    shed_level_ = 0;
    return;
  }
  degraded_ = true;
  if (!brownout_active && battery_sagging_) {
    // Persistent battery sag without fresh brownouts holds at one shed
    // level.  The cap keeps the top class admitted when there are several
    // classes; with a single class, sag sheds it — degrading to "save the
    // battery" beats simulating work the rail cannot finish.
    shed_level_ = std::clamp(shed_level_, 1, std::max(1, distinct_values_ - 1));
  }
}

void AdmissionController::OnQuantum(const SupplySample& sample) {
  // Supplied speed: the step the governor chose, weighted by how busy the
  // quantum was so idle parking doesn't drag the estimate to the floor.
  const double ratio = step_ratio_[static_cast<std::size_t>(sample.step)];
  const double w = config_.speed_ewma_weight * std::max(sample.utilization, 0.05);
  speed_ewma_ += w * (ratio - speed_ewma_);
  max_step_ = sample.max_step;

  if (sample.brownouts > last_brownouts_) {
    // Fresh brownout: enter (or deepen) degraded mode for the hold window.
    shed_level_ = shed_until_ > sample.at ? shed_level_ + 1 : 1;
    shed_level_ = std::min(shed_level_, std::max(1, distinct_values_ - 1));
    shed_until_ = sample.at + config_.brownout_shed_hold;
    last_brownouts_ = sample.brownouts;
  }
  battery_sagging_ = sample.battery_dod >= config_.battery_shed_dod;
  RefreshDegraded(sample.at);

  if (gauge_speed_ewma_ != nullptr) {
    gauge_speed_ewma_->Set(speed_ewma_);
  }
}

AdmissionController::Outcome AdmissionController::Consider(SimTime now, SimTime arrival,
                                                           double service_us,
                                                           double backlog_us,
                                                           std::size_t class_index) {
  ++considered_;
  if (ctr_considered_ != nullptr) {
    ctr_considered_->Inc();
  }

  // Demand estimators update on every arrival — rejected work is still
  // offered load, and the utilization test must see all of it.
  const double w = config_.demand_ewma_weight;
  demand_ewma_us_ =
      demand_ewma_us_ == 0.0 ? service_us : demand_ewma_us_ + w * (service_us - demand_ewma_us_);
  if (have_arrival_) {
    const double gap_us = (arrival - last_arrival_).ToMicrosF();
    interarrival_ewma_us_ = interarrival_ewma_us_ == 0.0
                                ? gap_us
                                : interarrival_ewma_us_ + w * (gap_us - interarrival_ewma_us_);
  }
  have_arrival_ = true;
  last_arrival_ = arrival;
  if (gauge_demand_ewma_us_ != nullptr) {
    gauge_demand_ewma_us_->Set(demand_ewma_us_);
  }

  RefreshDegraded(now);
  const auto reject = [&](Outcome outcome, MetricsCounter* ctr) {
    rejected_work_fs_us_ += service_us;
    if (ctr != nullptr) {
      ctr->Inc();
    }
    if (gauge_rejected_work_fs_us_ != nullptr) {
      gauge_rejected_work_fs_us_->Set(rejected_work_fs_us_);
    }
    return outcome;
  };

  if (degraded_ && class_rank_[class_index] < shed_level_) {
    ++rejected_shed_;
    return reject(Outcome::kRejectedShed, ctr_rejected_shed_);
  }
  const double effective_bound = degraded_ ? bound_ * config_.degraded_bound_factor : bound_;

  // Utilization-at-frequency test: long-run offered load against the
  // capacity the rail currently allows.
  const double capacity = step_ratio_[static_cast<std::size_t>(max_step_)];
  if (interarrival_ewma_us_ > 0.0 &&
      demand_ewma_us_ / interarrival_ewma_us_ > effective_bound * capacity) {
    ++rejected_overload_;
    return reject(Outcome::kRejectedOverload, ctr_rejected_overload_);
  }

  // Backlog feasibility: this request, behind the queued work, at the speed
  // the governor has been delivering, inside its remaining SLO slack
  // (arrival <= now always — arrivals are gated when they become due).
  const double slack_us = slo_us_ - (now - arrival).ToMicrosF();
  const double speed = std::max(speed_ewma_, 1e-3);
  if (slack_us <= 0.0 || (backlog_us + service_us) / speed > effective_bound * slack_us) {
    ++rejected_overload_;
    return reject(Outcome::kRejectedOverload, ctr_rejected_overload_);
  }

  ++admitted_;
  if (ctr_admitted_ != nullptr) {
    ctr_admitted_->Inc();
  }
  return Outcome::kAdmitted;
}

void AdmissionController::ObserveOutcome(bool violated) {
  if (config_.policy != AdmissionPolicy::kFeedback) {
    return;
  }
  ++window_outcomes_;
  if (violated) {
    ++window_violations_;
  }
  if (window_outcomes_ < config_.feedback_window) {
    return;
  }
  const double rate =
      static_cast<double>(window_violations_) / static_cast<double>(window_outcomes_);
  if (rate > config_.target_violation_rate) {
    bound_ = std::max(config_.min_bound, bound_ * config_.decrease_factor);
  } else {
    // Additive increase whenever the window meets the target.  Demanding a
    // *perfectly* clean window here death-spirals on governors with a small
    // structural lateness rate (quantum-granularity finishes): the bound
    // ratchets down on every blip, never recovers, and the violation rate
    // is then computed over a collapsing denominator.
    bound_ = std::min(config_.max_bound, bound_ + config_.increase_step);
  }
  window_outcomes_ = 0;
  window_violations_ = 0;
  if (gauge_bound_ != nullptr) {
    gauge_bound_->Set(bound_);
  }
}

void AdmissionController::BindMetrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    ctr_considered_ = nullptr;
    ctr_admitted_ = nullptr;
    ctr_rejected_overload_ = nullptr;
    ctr_rejected_shed_ = nullptr;
    gauge_bound_ = nullptr;
    gauge_speed_ewma_ = nullptr;
    gauge_demand_ewma_us_ = nullptr;
    gauge_rejected_work_fs_us_ = nullptr;
    return;
  }
  ctr_considered_ = &metrics->Counter("admission.considered");
  ctr_admitted_ = &metrics->Counter("admission.admitted");
  ctr_rejected_overload_ = &metrics->Counter("admission.rejected_overload");
  ctr_rejected_shed_ = &metrics->Counter("admission.rejected_shed");
  gauge_bound_ = &metrics->Gauge("admission.bound");
  gauge_speed_ewma_ = &metrics->Gauge("admission.speed_ewma");
  gauge_demand_ewma_us_ = &metrics->Gauge("admission.demand_ewma_us");
  gauge_rejected_work_fs_us_ = &metrics->Gauge("admission.rejected_work_fs_us");
  gauge_bound_->Set(bound_);
  gauge_speed_ewma_->Set(speed_ewma_);
}

namespace {
constexpr std::uint32_t kAdmissionTag = 0x41444D54u;  // "ADMT"
}  // namespace

void AdmissionController::Snapshot(SnapshotIo& io) {
  io.Tag(kAdmissionTag);
  io(demand_ewma_us_, interarrival_ewma_us_, have_arrival_, last_arrival_, speed_ewma_);
  // Consider indexes step_ratio_ with the max step, and the shed level and
  // window counts only grow by increments, so each loads within the range
  // the controller keeps it in.
  io.Index(max_step_, ClockTable::MaxStep());
  io(degraded_);
  io.Index(shed_level_, std::max(1, distinct_values_ - 1));
  io.As<std::int64_t>(last_brownouts_);
  io(shed_until_, battery_sagging_, bound_);
  io.Index(window_outcomes_, std::max(0, config_.feedback_window - 1));
  io.Index(window_violations_, window_outcomes_);
  io(considered_, admitted_, rejected_overload_, rejected_shed_, rejected_work_fs_us_);
}

}  // namespace dcs
