// Server-class open-loop workload.
//
// The paper only evaluates interval DVFS policies for single-user
// interactive sessions; ROADMAP item 4 asks what happens when the deadline
// is set by a request queue instead of a user.  This scenario models a
// request-serving system: requests arrive on an *open loop* (arrivals do not
// slow down when the server falls behind, unlike the closed interactive
// workloads), each carries a service demand drawn from a distribution, and
// each must complete by `arrival + SLO`.  Utilization is therefore set by
// the offered load, not by the think-time of a user — exactly the regime
// where race-to-idle and interval policies can disagree.
//
// Three arrival grammars, all driven by the seeded Rng so runs stay
// byte-identical across sweep thread counts:
//   poisson      memoryless arrivals at `rate_rps`
//   bursty       2-state MMPP: calm/burst phases with exponential dwell
//                times; the burst phase arrives `burst_rate_factor` times
//                faster, overall mean held at `rate_rps`
//   selfsimilar  superposition of Pareto on-off sources (heavy-tailed
//                on/off periods, shape < 2), the classic construction for
//                long-range-dependent traffic
//
// The generator draws every arrival time and its service demand up front
// into ServerRequests, two parallel arrays the workload walks by index.  A
// recorded or saved request set comes in through InputTrace's CSV as
// "service_us" events (time = arrival, magnitude = demand in microseconds
// at the top clock step) or "arrival" events (magnitude scales the
// configured mean demand), converted once by ServerRequestsFromTrace.

#ifndef SRC_WORKLOAD_SERVER_H_
#define SRC_WORKLOAD_SERVER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/kernel/workload_api.h"
#include "src/sim/fields.h"
#include "src/sim/ring.h"
#include "src/workload/admission.h"
#include "src/workload/deadline_monitor.h"
#include "src/workload/input_trace.h"

namespace dcs {

enum class ArrivalProcess { kPoisson, kBursty, kSelfSimilar };

// "poisson" | "bursty" | "selfsimilar".
const char* ArrivalProcessName(ArrivalProcess process);

// A value class of requests sharing one deadline-monitor stream.  Requests
// are assigned to classes by deterministic weighted round-robin on arrival
// index — no RNG draws — so the arrival/demand trace itself is
// class-independent and a recorded CSV replays identically whatever the
// class mix.  Lower-value classes are shed first in degraded mode.
struct ServerStreamClass {
  std::string name = "requests";
  double value = 1.0;   // shedding priority: lowest value shed first
  double weight = 1.0;  // relative share of requests assigned here
};

// Every member, in declaration order (src/sim/fields.h).
constexpr auto Fields(const ServerStreamClass*) {
  return std::tuple{&ServerStreamClass::name, &ServerStreamClass::value,
                    &ServerStreamClass::weight};
}
static_assert(ListsEveryField<ServerStreamClass>());

struct ServerConfig {
  ArrivalProcess arrivals = ArrivalProcess::kPoisson;
  // Mean offered load, requests per second (all three grammars hold this
  // long-run average).
  double rate_rps = 100.0;
  // Length of the arrival window; the bundle drains the tail after it.
  SimTime duration = SimTime::Seconds(40);
  // Per-request deadline is arrival + slo.
  SimTime slo = SimTime::Millis(100);
  // Service demand: exponential with this mean (milliseconds of compute at
  // 206.4 MHz), clamped to max_service_factor * mean so one pathological
  // draw cannot wedge the queue.
  double service_ms_at_top = 2.0;
  double max_service_factor = 8.0;
  // Request handling is assumed moderately memory-bound (protocol parsing
  // plus payload assembly).
  MemoryProfile profile{12.0, 4.0};

  // -- bursty (MMPP) parameters --
  double burst_rate_factor = 4.0;
  SimTime calm_dwell_mean = SimTime::Seconds(2);
  SimTime burst_dwell_mean = SimTime::Millis(500);

  // -- selfsimilar parameters --
  int onoff_sources = 8;
  // Pareto shape for on/off period lengths; 1 < shape < 2 gives the
  // infinite-variance periods that produce long-range dependence.
  double pareto_shape = 1.5;
  SimTime pareto_on_min = SimTime::Millis(200);
  SimTime pareto_off_min = SimTime::Millis(400);

  // -- overload control --
  // Request classes; empty means one default {"requests", 1, 1} class,
  // which keeps single-stream scenarios byte-identical to the
  // pre-admission server.
  std::vector<ServerStreamClass> streams;
  // Admission gate (src/workload/admission.h); policy kNone leaves the
  // simulation untouched, byte for byte.
  AdmissionConfig admission;
};

// Every member, in declaration order (src/sim/fields.h).
constexpr auto Fields(const ServerConfig*) {
  return std::tuple{&ServerConfig::arrivals, &ServerConfig::rate_rps, &ServerConfig::duration,
                    &ServerConfig::slo, &ServerConfig::service_ms_at_top,
                    &ServerConfig::max_service_factor, &ServerConfig::profile,
                    &ServerConfig::burst_rate_factor, &ServerConfig::calm_dwell_mean,
                    &ServerConfig::burst_dwell_mean, &ServerConfig::onoff_sources,
                    &ServerConfig::pareto_shape, &ServerConfig::pareto_on_min,
                    &ServerConfig::pareto_off_min, &ServerConfig::streams,
                    &ServerConfig::admission};
}
static_assert(ListsEveryField<ServerConfig>());

// Rejects a nonsensical scenario up front with std::invalid_argument
// (non-positive rate/SLO/service mean, bad MMPP/Pareto parameters,
// malformed stream classes or admission bounds), in the strict InputTrace
// v2 style: fail loudly at construction instead of silently simulating
// garbage.  Called by ServerWorkload's constructor and MakeServerRequests.
void ValidateServerConfig(const ServerConfig& config);

// Calm-state arrival rate of the bursty (MMPP) grammar: solved from the
// stationary dwell fractions so the long-run mean stays at rate_rps while
// the burst state arrives burst_rate_factor times faster,
//   f_calm * r_calm + f_burst * factor * r_calm = rate_rps.
// Exposed so the arrival-rate property test can check the solve analytically.
double MmppCalmRateRps(const ServerConfig& config);

// An open-loop request set in arrival order: request i arrives at `at[i]`
// (non-decreasing, from the workload's start) and needs `service_us[i]`
// microseconds of compute at the top clock step.
struct ServerRequests {
  std::vector<SimTime> at;
  std::vector<double> service_us;

  std::size_t size() const { return at.size(); }
  bool operator==(const ServerRequests&) const = default;
};

// Generates the open-loop requests for `config`: every arrival of the
// grammar first, then one service demand per arrival, in arrival order.
// Throws std::invalid_argument on a config ValidateServerConfig rejects.
ServerRequests MakeServerRequests(const ServerConfig& config, std::uint64_t seed);

// Converts a recorded trace (e.g. loaded via InputTrace::ReadCsv).  Accepts
// "service_us" events (magnitude = demand in µs at the top step) and
// "arrival" events (magnitude = multiplier on config.service_ms_at_top);
// anything else throws std::invalid_argument.
ServerRequests ServerRequestsFromTrace(const InputTrace& trace, const ServerConfig& config);

// Single-worker FIFO request server.  Replays a request set: arrivals enter
// a queue, the worker serves head-of-line, and every completion is reported
// via DeadlineMonitor::ReportRequest on stream "requests" (miss if
// completion > arrival + slo; latency histogram in microseconds).  Throws
// std::invalid_argument on a bad config or arrays of unequal length.
class ServerWorkload final : public Workload {
 public:
  ServerWorkload(ServerRequests requests, const ServerConfig& config,
                 DeadlineMonitor* deadlines);

  const char* Name() const override { return "server"; }
  Action Next(const WorkloadContext& ctx) override;
  MemoryProfile Profile() const override { return config_.profile; }

  // The gate's controller, when the scenario enables admission (tests and
  // the bench verdict read the estimator state through this).
  const AdmissionController* admission() const {
    return admission_.has_value() ? &*admission_ : nullptr;
  }

  // Device-snapshot image: queue contents, class credits, serving state and
  // the admission controller's estimators.  LoadState also re-registers the
  // controller as the kernel's supply observer when the saved state had
  // bound it (a fresh stack has never run Next()).
  void Snapshot(SnapshotIo& io) override;
  void LoadState(SnapshotReader* r, Kernel* kernel) override;

 private:
  struct Request {
    SimTime arrival;
    double service_us;       // demand at the top clock step
    std::size_t cls = 0;     // index into classes_
  };

  std::size_t PickClass();

  ServerRequests requests_;
  ServerConfig config_;
  DeadlineMonitor* deadlines_;
  // Resolved request classes (config_.streams, or the single default).
  std::vector<ServerStreamClass> classes_;
  // Each class's deadline-monitor stream, interned once.
  std::vector<DeadlineMonitor::Stream> class_streams_;
  // Deficit counters for the weighted round-robin class assignment.
  std::vector<double> class_credit_;
  double total_weight_ = 0.0;
  std::optional<AdmissionController> admission_;
  bool supply_bound_ = false;
  std::size_t next_arrival_ = 0;
  Ring<Request> queue_;
  // Demand queued ahead of a new arrival, µs at the top step (the gate's
  // backlog input), maintained incrementally.
  double queue_work_us_ = 0.0;
  bool serving_ = false;
  Request current_;
  SimTime origin_;
  bool primed_ = false;
};

struct AppBundle;

// Default server scenario (Poisson, ServerConfig{} rates/SLO).
AppBundle MakeServerApp(DeadlineMonitor* deadlines, std::uint64_t seed);
// Custom scenario; the requests are generated from `config` and `seed`.
AppBundle MakeServerApp(const ServerConfig& config, DeadlineMonitor* deadlines,
                        std::uint64_t seed);
// Replay of a recorded request trace through ServerRequestsFromTrace;
// `config` still supplies the SLO, memory profile and mean demand for
// "arrival" events.
AppBundle MakeServerAppFromTrace(const InputTrace& trace, const ServerConfig& config,
                                 DeadlineMonitor* deadlines);

}  // namespace dcs

#endif  // SRC_WORKLOAD_SERVER_H_
