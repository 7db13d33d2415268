// Simulation time: a strong integer type with nanosecond resolution.
//
// The paper reports times in microseconds (scheduler quanta are 10 ms, the
// DAQ samples every 200 us, clock changes stall the CPU for 200 us).  We keep
// nanosecond resolution internally so that cycle-level arithmetic at
// 206.4 MHz (4.8 ns / cycle) rounds acceptably, and expose microsecond and
// second views for reporting.

#ifndef SRC_SIM_TIME_H_
#define SRC_SIM_TIME_H_

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace dcs {

// A point in simulated time or a duration, counted in integer nanoseconds
// since the start of the simulation.  SimTime is totally ordered and supports
// the usual affine arithmetic (point - point = duration, point + duration =
// point); we do not distinguish points from durations at the type level
// because the simulator's uses are simple enough not to warrant it.
class SimTime {
 public:
  constexpr SimTime() = default;

  // Named constructors.  Fractional inputs round to the nearest nanosecond.
  static constexpr SimTime Nanos(std::int64_t ns) { return SimTime(ns); }
  static constexpr SimTime Micros(std::int64_t us) { return SimTime(us * 1000); }
  static constexpr SimTime Millis(std::int64_t ms) { return SimTime(ms * 1000000); }
  static constexpr SimTime Seconds(std::int64_t s) { return SimTime(s * 1000000000); }
  static constexpr SimTime FromSecondsF(double s) {
    return SimTime(static_cast<std::int64_t>(s * 1e9 + (s >= 0 ? 0.5 : -0.5)));
  }
  static constexpr SimTime FromMicrosF(double us) {
    return SimTime(static_cast<std::int64_t>(us * 1e3 + (us >= 0 ? 0.5 : -0.5)));
  }
  static constexpr SimTime Max() {
    return SimTime(std::numeric_limits<std::int64_t>::max());
  }
  static constexpr SimTime Zero() { return SimTime(0); }

  // Raw accessors.
  constexpr std::int64_t nanos() const { return ns_; }
  constexpr std::int64_t micros() const { return ns_ / 1000; }
  constexpr std::int64_t millis() const { return ns_ / 1000000; }
  constexpr double ToSeconds() const { return static_cast<double>(ns_) * 1e-9; }
  constexpr double ToMicrosF() const { return static_cast<double>(ns_) * 1e-3; }

  constexpr bool IsNegative() const { return ns_ < 0; }

  // Arithmetic.
  constexpr SimTime operator+(SimTime other) const { return SimTime(ns_ + other.ns_); }
  constexpr SimTime operator-(SimTime other) const { return SimTime(ns_ - other.ns_); }
  constexpr SimTime operator*(std::int64_t k) const { return SimTime(ns_ * k); }
  constexpr SimTime operator/(std::int64_t k) const { return SimTime(ns_ / k); }
  constexpr std::int64_t operator/(SimTime other) const { return ns_ / other.ns_; }
  constexpr SimTime operator%(SimTime other) const { return SimTime(ns_ % other.ns_); }
  SimTime& operator+=(SimTime other) {
    ns_ += other.ns_;
    return *this;
  }
  SimTime& operator-=(SimTime other) {
    ns_ -= other.ns_;
    return *this;
  }

  constexpr auto operator<=>(const SimTime&) const = default;

  // Human-readable rendering, e.g. "12.340ms" or "3.000s"; used in logs.
  std::string ToString() const;

 private:
  explicit constexpr SimTime(std::int64_t ns) : ns_(ns) {}

  std::int64_t ns_ = 0;
};

constexpr SimTime operator*(std::int64_t k, SimTime t) { return t * k; }

}  // namespace dcs

#endif  // SRC_SIM_TIME_H_
