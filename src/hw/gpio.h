// SA-1100 general-purpose I/O pins.
//
// The paper's measurement methodology toggles a GPIO pin when a workload
// starts and stops; the pin is wired to the DAQ's external trigger.  We model
// a small pin bank with edge observers so the DAQ can latch trigger times.

#ifndef SRC_HW_GPIO_H_
#define SRC_HW_GPIO_H_

#include <array>
#include <functional>
#include <vector>

#include "src/sim/snapshot.h"
#include "src/sim/time.h"

namespace dcs {

inline constexpr int kNumGpioPins = 28;  // SA-1100 has 28 GPIO lines.

class Gpio {
 public:
  // Edge callback: (pin, time, new_level).
  using EdgeObserver = std::function<void(int pin, SimTime at, bool level)>;

  // Current level of `pin` (pins start low).
  bool Level(int pin) const;

  // Drives `pin` to `level` at time `at`; observers fire only on actual
  // transitions.
  void Write(int pin, bool level, SimTime at);

  // Inverts `pin`, the idiom the paper's trigger code uses.
  void Toggle(int pin, SimTime at);

  // Registers an observer for all pin transitions.
  void Observe(EdgeObserver observer);

  // Device-snapshot support (src/sim/snapshot.h).  Pin levels only;
  // observers are wiring, re-attached when the stack is built.
  void Snapshot(SnapshotIo& io) { io(levels_); }

 private:
  std::array<bool, kNumGpioPins> levels_{};
  std::vector<EdgeObserver> observers_;
};

}  // namespace dcs

#endif  // SRC_HW_GPIO_H_
