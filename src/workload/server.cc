#include "src/workload/server.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/workload/apps.h"
#include "src/workload/demand.h"

namespace dcs {
namespace {

// Pareto draw with minimum `xm` and shape `alpha` (inverse-CDF on a uniform
// kept away from 0 so the heavy tail stays finite).
double Pareto(Rng& rng, double xm, double alpha) {
  double u = rng.NextDouble();
  if (u < 1e-12) {
    u = 1e-12;
  }
  return xm * std::pow(u, -1.0 / alpha);
}

// Service demand in microseconds at the top step: exponential with the
// configured mean, clamped below at a sliver (no zero-cycle requests) and
// above at max_service_factor times the mean.
double DrawServiceUs(Rng& rng, const ServerConfig& config) {
  const double mean_us = config.service_ms_at_top * 1e3;
  const double draw = rng.Exponential(mean_us);
  return std::clamp(draw, 0.05 * mean_us, config.max_service_factor * mean_us);
}

void AppendPoissonArrivals(Rng& rng, double rate_rps, double from_s, double until_s,
                           std::vector<double>* arrivals) {
  if (rate_rps <= 0.0) {
    return;
  }
  double t = from_s;
  for (;;) {
    t += rng.Exponential(1.0 / rate_rps);
    if (t >= until_s) {
      return;
    }
    arrivals->push_back(t);
  }
}

std::vector<double> PoissonArrivalTimes(Rng& rng, const ServerConfig& config) {
  std::vector<double> arrivals;
  AppendPoissonArrivals(rng, config.rate_rps, 0.0, config.duration.ToSeconds(), &arrivals);
  return arrivals;
}

// 2-state Markov-modulated Poisson process.  Dwell times are exponential;
// the calm-state rate comes from MmppCalmRateRps (declared in the header so
// the property test can check the solve analytically).
std::vector<double> BurstyArrivalTimes(Rng& rng, const ServerConfig& config) {
  const double calm_dwell = config.calm_dwell_mean.ToSeconds();
  const double burst_dwell = config.burst_dwell_mean.ToSeconds();
  const double r_calm = MmppCalmRateRps(config);
  const double r_burst = r_calm * config.burst_rate_factor;

  std::vector<double> arrivals;
  const double until = config.duration.ToSeconds();
  double t = 0.0;
  bool burst = false;
  while (t < until) {
    const double dwell = rng.Exponential(burst ? burst_dwell : calm_dwell);
    const double end = std::min(t + dwell, until);
    AppendPoissonArrivals(rng, burst ? r_burst : r_calm, t, end, &arrivals);
    t = end;
    burst = !burst;
  }
  return arrivals;
}

// Superposed Pareto on-off sources: each source alternates heavy-tailed
// on/off periods and emits Poisson arrivals while on.  The per-source on
// rate is solved from the duty cycle so the aggregate mean stays rate_rps.
std::vector<double> SelfSimilarArrivalTimes(Rng& rng, const ServerConfig& config) {
  const int sources = std::max(1, config.onoff_sources);
  const double alpha = config.pareto_shape;
  const double mean_on = config.pareto_on_min.ToSeconds() * alpha / (alpha - 1.0);
  const double mean_off = config.pareto_off_min.ToSeconds() * alpha / (alpha - 1.0);
  const double duty = mean_on / (mean_on + mean_off);
  const double rate_on = config.rate_rps / (static_cast<double>(sources) * duty);

  std::vector<double> arrivals;
  const double until = config.duration.ToSeconds();
  for (int s = 0; s < sources; ++s) {
    // Each source gets a forked stream so the source count doesn't shift
    // the draws of the others.
    Rng source_rng = rng.Fork();
    double t = 0.0;
    bool on = source_rng.NextDouble() < duty;  // stationary-ish start
    while (t < until) {
      const double period = Pareto(
          source_rng,
          on ? config.pareto_on_min.ToSeconds() : config.pareto_off_min.ToSeconds(), alpha);
      const double end = std::min(t + period, until);
      if (on) {
        AppendPoissonArrivals(source_rng, rate_on, t, end, &arrivals);
      }
      t = end;
      on = !on;
    }
  }
  std::sort(arrivals.begin(), arrivals.end());
  return arrivals;
}

}  // namespace

const char* ArrivalProcessName(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kPoisson:
      return "poisson";
    case ArrivalProcess::kBursty:
      return "bursty";
    case ArrivalProcess::kSelfSimilar:
      return "selfsimilar";
  }
  return "?";
}

void ValidateServerConfig(const ServerConfig& config) {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("ServerConfig: " + what);
  };
  if (!(config.rate_rps > 0.0) || !std::isfinite(config.rate_rps)) {
    fail("rate_rps must be positive and finite (got " + std::to_string(config.rate_rps) + ")");
  }
  if (config.duration <= SimTime::Zero()) {
    fail("duration must be positive (got " + config.duration.ToString() + ")");
  }
  if (config.slo <= SimTime::Zero()) {
    fail("slo must be positive (got " + config.slo.ToString() + ")");
  }
  if (!(config.service_ms_at_top > 0.0) || !std::isfinite(config.service_ms_at_top)) {
    fail("service_ms_at_top must be positive and finite (got " +
         std::to_string(config.service_ms_at_top) + ")");
  }
  if (!(config.max_service_factor > 0.05)) {
    fail("max_service_factor must exceed the 0.05 lower clamp (got " +
         std::to_string(config.max_service_factor) + ")");
  }
  if (!(config.burst_rate_factor >= 1.0)) {
    fail("burst_rate_factor must be >= 1 (got " + std::to_string(config.burst_rate_factor) +
         ")");
  }
  if (config.calm_dwell_mean <= SimTime::Zero() || config.burst_dwell_mean <= SimTime::Zero()) {
    fail("MMPP dwell means must be positive");
  }
  if (config.onoff_sources < 1) {
    fail("onoff_sources must be >= 1 (got " + std::to_string(config.onoff_sources) + ")");
  }
  if (!(config.pareto_shape > 1.0)) {
    fail("pareto_shape must be > 1 (got " + std::to_string(config.pareto_shape) + ")");
  }
  if (config.pareto_on_min <= SimTime::Zero() || config.pareto_off_min <= SimTime::Zero()) {
    fail("Pareto on/off minimums must be positive");
  }
  for (std::size_t i = 0; i < config.streams.size(); ++i) {
    const ServerStreamClass& cls = config.streams[i];
    if (cls.name.empty()) {
      fail("streams[" + std::to_string(i) + "] has an empty name");
    }
    if (!(cls.weight > 0.0) || !std::isfinite(cls.weight)) {
      fail("streams[" + std::to_string(i) + "] ('" + cls.name +
           "') weight must be positive and finite (got " + std::to_string(cls.weight) + ")");
    }
    if (!std::isfinite(cls.value)) {
      fail("streams[" + std::to_string(i) + "] ('" + cls.name + "') value must be finite");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (config.streams[j].name == cls.name) {
        fail("streams[" + std::to_string(i) + "] duplicates name '" + cls.name + "'");
      }
    }
  }
  const AdmissionConfig& adm = config.admission;
  if (!(adm.utilization_bound > 0.0) || !std::isfinite(adm.utilization_bound)) {
    fail("admission.utilization_bound must be positive and finite (got " +
         std::to_string(adm.utilization_bound) + ")");
  }
  if (!(adm.target_violation_rate >= 0.0) || !(adm.target_violation_rate < 1.0)) {
    fail("admission.target_violation_rate must be in [0, 1) (got " +
         std::to_string(adm.target_violation_rate) + ")");
  }
  if (!(adm.decrease_factor > 0.0) || !(adm.decrease_factor < 1.0)) {
    fail("admission.decrease_factor must be in (0, 1) (got " +
         std::to_string(adm.decrease_factor) + ")");
  }
  if (!(adm.increase_step >= 0.0) || !std::isfinite(adm.increase_step)) {
    fail("admission.increase_step must be non-negative and finite");
  }
  if (!(adm.min_bound > 0.0) || !(adm.min_bound <= adm.max_bound)) {
    fail("admission bounds must satisfy 0 < min_bound <= max_bound");
  }
  if (adm.feedback_window < 1) {
    fail("admission.feedback_window must be >= 1 (got " +
         std::to_string(adm.feedback_window) + ")");
  }
  if (!(adm.demand_ewma_weight > 0.0) || !(adm.demand_ewma_weight <= 1.0) ||
      !(adm.speed_ewma_weight > 0.0) || !(adm.speed_ewma_weight <= 1.0)) {
    fail("admission EWMA weights must be in (0, 1]");
  }
  if (!(adm.battery_shed_dod > 0.0) || !(adm.battery_shed_dod <= 1.0)) {
    fail("admission.battery_shed_dod must be in (0, 1] (got " +
         std::to_string(adm.battery_shed_dod) + ")");
  }
  if (adm.brownout_shed_hold < SimTime::Zero()) {
    fail("admission.brownout_shed_hold must be non-negative");
  }
  if (!(adm.degraded_bound_factor > 0.0) || !(adm.degraded_bound_factor <= 1.0)) {
    fail("admission.degraded_bound_factor must be in (0, 1] (got " +
         std::to_string(adm.degraded_bound_factor) + ")");
  }
}

double MmppCalmRateRps(const ServerConfig& config) {
  const double calm_dwell = config.calm_dwell_mean.ToSeconds();
  const double burst_dwell = config.burst_dwell_mean.ToSeconds();
  const double f_calm = calm_dwell / (calm_dwell + burst_dwell);
  const double f_burst = 1.0 - f_calm;
  return config.rate_rps / (f_calm + f_burst * config.burst_rate_factor);
}

ServerRequests MakeServerRequests(const ServerConfig& config, std::uint64_t seed) {
  ValidateServerConfig(config);
  Rng rng(seed);
  std::vector<double> seconds;
  switch (config.arrivals) {
    case ArrivalProcess::kPoisson:
      seconds = PoissonArrivalTimes(rng, config);
      break;
    case ArrivalProcess::kBursty:
      seconds = BurstyArrivalTimes(rng, config);
      break;
    case ArrivalProcess::kSelfSimilar:
      seconds = SelfSimilarArrivalTimes(rng, config);
      break;
  }
  ServerRequests requests;
  requests.at.reserve(seconds.size());
  for (const double at : seconds) {
    requests.at.push_back(SimTime::FromSecondsF(at));
  }
  // Demands are drawn after the full arrival pattern so the two streams stay
  // independent (the self-similar merge would otherwise interleave them).
  // Each overwrites its arrival's slot, which is no longer needed.
  for (double& slot : seconds) {
    slot = DrawServiceUs(rng, config);
  }
  requests.service_us = std::move(seconds);
  return requests;
}

ServerRequests ServerRequestsFromTrace(const InputTrace& trace, const ServerConfig& config) {
  ServerRequests requests;
  requests.at.reserve(trace.size());
  requests.service_us.reserve(trace.size());
  for (const InputEvent& event : trace.events()) {
    double service_us = event.magnitude;
    if (event.kind == "arrival") {
      service_us = event.magnitude * config.service_ms_at_top * 1e3;
    } else if (event.kind != "service_us") {
      throw std::invalid_argument("ServerRequestsFromTrace: unsupported event kind '" +
                                  event.kind + "' (expected service_us|arrival)");
    }
    requests.at.push_back(event.at);
    requests.service_us.push_back(service_us);
  }
  return requests;
}

ServerWorkload::ServerWorkload(ServerRequests requests, const ServerConfig& config,
                               DeadlineMonitor* deadlines)
    : requests_(std::move(requests)), config_(config), deadlines_(deadlines) {
  ValidateServerConfig(config_);
  if (requests_.at.size() != requests_.service_us.size()) {
    throw std::invalid_argument("ServerWorkload: " + std::to_string(requests_.at.size()) +
                                " arrival times but " +
                                std::to_string(requests_.service_us.size()) + " demands");
  }
  classes_ = config_.streams;
  if (classes_.empty()) {
    classes_.push_back(ServerStreamClass{});
  }
  class_credit_.assign(classes_.size(), 0.0);
  for (const ServerStreamClass& cls : classes_) {
    total_weight_ += cls.weight;
    if (deadlines_ != nullptr) {
      class_streams_.push_back(deadlines_->Intern(cls.name));
    }
  }
  if (config_.admission.policy != AdmissionPolicy::kNone) {
    std::vector<double> values;
    values.reserve(classes_.size());
    for (const ServerStreamClass& cls : classes_) {
      values.push_back(cls.value);
    }
    admission_.emplace(config_.admission, config_.slo, config_.rate_rps, config_.profile,
                       std::move(values));
  }
}

// Deficit round-robin on arrival index: each class accrues credit in
// proportion to its weight; the richest class takes the request.  Purely
// arithmetic on the arrival sequence number, so the assignment is the same
// whatever the thread count and whether the trace was generated or replayed.
std::size_t ServerWorkload::PickClass() {
  if (classes_.size() == 1) {
    return 0;
  }
  std::size_t pick = 0;
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    class_credit_[i] += classes_[i].weight / total_weight_;
    if (class_credit_[i] > class_credit_[pick]) {
      pick = i;
    }
  }
  class_credit_[pick] -= 1.0;
  return pick;
}

Action ServerWorkload::Next(const WorkloadContext& ctx) {
  if (!primed_) {
    primed_ = true;
    origin_ = ctx.now;
  }
  if (admission_.has_value() && !supply_bound_ && ctx.kernel != nullptr) {
    // First call runs inside the kernel's task bring-up, before Start():
    // register for per-quantum supply samples and resolve admission.*
    // instruments once, so the gate itself never touches the registry.
    supply_bound_ = true;
    ctx.kernel->BindSupplyObserver(&*admission_);
    admission_->BindMetrics(ctx.kernel->metrics());
  }
  if (serving_) {
    serving_ = false;
    const bool violated = ctx.now > current_.arrival + config_.slo;
    if (deadlines_ != nullptr) {
      deadlines_->ReportRequest(class_streams_[current_.cls], current_.arrival, config_.slo,
                                ctx.now);
    }
    if (admission_.has_value()) {
      admission_->ObserveOutcome(violated);
    }
  }
  // Gate everything that arrived while the worker was busy.
  while (next_arrival_ < requests_.size()) {
    const SimTime at = origin_ + requests_.at[next_arrival_];
    if (at > ctx.now) {
      break;
    }
    const double service_us = requests_.service_us[next_arrival_];
    // The class assignment advances for every arrival, admitted or not, so
    // the class sequence is a pure function of the arrival index.
    const std::size_t cls = PickClass();
    bool admit = true;
    if (admission_.has_value()) {
      const AdmissionController::Outcome outcome =
          admission_->Consider(ctx.now, at, service_us, queue_work_us_, cls);
      admit = outcome == AdmissionController::Outcome::kAdmitted;
      if (!admit && deadlines_ != nullptr) {
        deadlines_->ReportRejected(class_streams_[cls],
                                   outcome == AdmissionController::Outcome::kRejectedShed);
      }
    }
    if (admit) {
      queue_.push_back(Request{at, service_us, cls});
      queue_work_us_ += service_us;
    }
    ++next_arrival_;
  }
  if (!queue_.empty()) {
    current_ = queue_.front();
    queue_.pop_front();
    queue_work_us_ -= current_.service_us;
    serving_ = true;
    // Announce the request's deadline so deadline-aware governors can pace
    // the work; oblivious interval policies ignore it.
    return Action::ComputeBy(BaseCyclesForMsAtTop(current_.service_us * 1e-3, config_.profile),
                             current_.arrival + config_.slo);
  }
  if (next_arrival_ < requests_.size()) {
    // Idle until the next request hits the NIC; the wake-up is an interrupt,
    // not a jiffy-rounded usleep.
    return Action::SleepUntil(origin_ + requests_.at[next_arrival_], /*jiffy=*/false);
  }
  return Action::Exit();
}

namespace {
constexpr std::uint32_t kServerTag = 0x53525652u;  // "SRVR"
}  // namespace

void ServerWorkload::Snapshot(SnapshotIo& io) {
  io.Tag(kServerTag);
  io.Bytes(class_credit_.data(), class_credit_.size() * sizeof(double));
  // The image must come from a scenario with the same admission policy.
  if (!io.Expect(admission_.has_value())) {
    return;
  }
  if (admission_.has_value()) {
    admission_->Snapshot(io);
  }
  io(supply_bound_);
  io.Index(next_arrival_, requests_.size());
  const std::size_t last_class = classes_.size() - 1;
  io.Window(queue_, requests_.size(), sizeof(Request), [&](Request& request) {
    io(request.arrival, request.service_us);
    io.Index(request.cls, last_class);
  });
  io(queue_work_us_, serving_, current_.arrival, current_.service_us);
  io.Index(current_.cls, last_class);
  io(origin_, primed_);
}

void ServerWorkload::LoadState(SnapshotReader* r, Kernel* kernel) {
  Workload::LoadState(r, kernel);
  if (supply_bound_ && admission_.has_value() && kernel != nullptr) {
    // Re-establish the binding Next() made on its first call: a fresh stack
    // has never run the workload, so the kernel's observer slot is empty.
    kernel->BindSupplyObserver(&*admission_);
    admission_->BindMetrics(kernel->metrics());
  }
}

namespace {

AppBundle ServerBundle(ServerRequests requests, const ServerConfig& config,
                       DeadlineMonitor* deadlines) {
  AppBundle bundle;
  bundle.name = "server";
  // Leave room past the last arrival for the queue to drain.
  const SimTime last = requests.at.empty() ? SimTime::Zero() : requests.at.back();
  bundle.duration = std::max(config.duration, last) + SimTime::Seconds(2);
  bundle.tasks.push_back(
      std::make_unique<ServerWorkload>(std::move(requests), config, deadlines));
  return bundle;
}

}  // namespace

AppBundle MakeServerApp(DeadlineMonitor* deadlines, std::uint64_t seed) {
  return MakeServerApp(ServerConfig{}, deadlines, seed);
}

AppBundle MakeServerApp(const ServerConfig& config, DeadlineMonitor* deadlines,
                        std::uint64_t seed) {
  return ServerBundle(MakeServerRequests(config, seed), config, deadlines);
}

AppBundle MakeServerAppFromTrace(const InputTrace& trace, const ServerConfig& config,
                                 DeadlineMonitor* deadlines) {
  return ServerBundle(ServerRequestsFromTrace(trace, config), config, deadlines);
}

}  // namespace dcs
