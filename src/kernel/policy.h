// The clock-scaling policy hook.
//
// Mirrors the paper's implementation: "We also implemented an extensible
// clock scaling policy module as a kernel module.  We modified the clock
// interrupt handler to call the clock scheduling mechanism if it has been
// installed, and the Linux scheduler to keep track of CPU utilization."
//
// On every 10 ms clock interrupt the kernel computes the utilization of the
// quantum that just ended (non-idle time / quantum length) and hands it to
// the installed policy, which may request a new clock step and/or core
// voltage.  Policies live in src/core; the kernel only knows this interface.

#ifndef SRC_KERNEL_POLICY_H_
#define SRC_KERNEL_POLICY_H_

#include <cstdint>
#include <optional>
#include <type_traits>

#include "src/hw/voltage_regulator.h"
#include "src/sim/snapshot.h"
#include "src/sim/time.h"

namespace dcs {

// Per-quantum utilization snapshot handed to the policy.
struct UtilizationSample {
  SimTime quantum_start;
  SimTime quantum_end;
  // Fraction of the quantum spent non-idle, in [0, 1].  Spin loops and
  // kernel overhead count as busy, exactly as the paper's kernel
  // accounting saw them.
  double utilization = 0.0;
  // Current hardware state when the sample was taken.
  int step = 0;
  CoreVoltage voltage = CoreVoltage::kHigh;
  // Monotone quantum counter since kernel start.
  std::uint64_t quantum_index = 0;
};

// What a policy wants the hardware to do.  Absent fields mean "no change".
struct SpeedRequest {
  std::optional<int> step;
  std::optional<CoreVoltage> voltage;

  bool Empty() const { return !step.has_value() && !voltage.has_value(); }
};

// Installed into the kernel via Kernel::InstallPolicy().  The kernel calls
// OnQuantum() from the clock interrupt; any requested change is applied
// immediately (the CPU stalls 200 us for a clock change, and voltage
// requests that are unsafe at the chosen step are refused by the hardware
// layer).
class Kernel;

class ClockPolicy {
 public:
  virtual ~ClockPolicy() = default;

  // Policy name for reports, e.g. "AVG9-one-one-50/70".
  virtual const char* Name() const = 0;

  // Called when the policy module is installed.  Policies that need more
  // than the per-quantum utilization (e.g. the deadline registry) keep the
  // kernel reference; the default implementation ignores it.
  virtual void OnInstall(Kernel& kernel) { (void)kernel; }

  // Called at every quantum boundary.  Return an empty request (or
  // std::nullopt) to leave the clock alone.
  virtual std::optional<SpeedRequest> OnQuantum(const UtilizationSample& sample) = 0;

  // Device-snapshot image (src/sim/snapshot.h).  Stateful policies
  // describe every mutable field; stateless ones keep this default.  Config
  // (thresholds, windows, gains) is ctor-owned and not in the image — a
  // restore target must be built from the same spec as the image.
  virtual void Snapshot(SnapshotIo& io) { (void)io; }
};

// Type-erased static dispatch for the per-quantum policy call.
//
// The tick path runs OnQuantum() once per 10 ms of simulated time across
// every job of every sweep; with 20 registered governor types the virtual
// call is a guaranteed indirect branch plus a vtable load per quantum.  A
// PolicyDispatch pairs the policy pointer with a function pointer built
// once, from the policy's *concrete* type (as EventFn does for event
// handlers, src/sim/simulator.h): the thunk's qualified call compiles to a
// direct, inlinable call into the final class.  Requiring P to be final
// makes "P is the object's dynamic type" a compile-time fact, so the thunk
// calls exactly the member function the vtable would.
using PolicyQuantumFn = std::optional<SpeedRequest> (*)(ClockPolicy*,
                                                        const UtilizationSample&);

struct PolicyDispatch {
  ClockPolicy* policy = nullptr;
  PolicyQuantumFn on_quantum = nullptr;

  // Static dispatch thunk for a final policy type; the qualified call
  // suppresses virtual dispatch.
  template <typename P>
  static PolicyDispatch For(P* policy) {
    static_assert(std::is_base_of_v<ClockPolicy, P>,
                  "PolicyDispatch requires a ClockPolicy subclass");
    static_assert(std::is_final_v<P>,
                  "PolicyDispatch requires the policy's final (dynamic) type");
    PolicyDispatch d;
    d.policy = policy;
    d.on_quantum = [](ClockPolicy* base, const UtilizationSample& sample) {
      return static_cast<P*>(base)->P::OnQuantum(sample);
    };
    return d;
  }
};

}  // namespace dcs

#endif  // SRC_KERNEL_POLICY_H_
