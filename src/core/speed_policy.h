// Speed-setting policies — the "speed-setting" half of an interval scheduler.
//
// "We use three algorithms for scaling: one, double, and peg.  The one
// policy increments (or decrements) the clock value by one step.  The peg
// policy sets the clock to the highest (or lowest) value.  The double policy
// tries to double (or halve) the clock step.  Since the lowest clock step on
// the Itsy is zero, we increment the clock index value before doubling it.
// Separate policies may be used for scaling upwards and downwards."
// (paper section 2.2)

#ifndef SRC_CORE_SPEED_POLICY_H_
#define SRC_CORE_SPEED_POLICY_H_

#include <memory>
#include <string>

#include "src/hw/clock_table.h"

namespace dcs {

enum class ScaleDirection { kUp, kDown };

class SpeedPolicy {
 public:
  virtual ~SpeedPolicy() = default;

  // Short name for report tables: "one", "double", "peg".
  virtual const std::string& Name() const = 0;

  // Next clock step when scaling from `current` in `direction`.  The result
  // is clamped to [min_step, max_step].
  virtual int Next(int current, ScaleDirection direction, int min_step,
                   int max_step) const = 0;
};

// Increments / decrements by one clock step.
class OneStepPolicy final : public SpeedPolicy {
 public:
  const std::string& Name() const override { return name_; }
  int Next(int current, ScaleDirection direction, int min_step, int max_step) const override;

 private:
  std::string name_ = "one";
};

// Doubles (after incrementing, since step 0 would otherwise be absorbing) or
// halves the step index.
class DoubleStepPolicy final : public SpeedPolicy {
 public:
  const std::string& Name() const override { return name_; }
  int Next(int current, ScaleDirection direction, int min_step, int max_step) const override;

 private:
  std::string name_ = "double";
};

// Pegs the clock to the highest (up) or lowest (down) step.
class PegStepPolicy final : public SpeedPolicy {
 public:
  const std::string& Name() const override { return name_; }
  int Next(int current, ScaleDirection direction, int min_step, int max_step) const override;

 private:
  std::string name_ = "peg";
};

// Factory by name ("one" | "double" | "peg"); returns nullptr for unknown
// names.
std::unique_ptr<SpeedPolicy> MakeSpeedPolicy(const std::string& name);

}  // namespace dcs

#endif  // SRC_CORE_SPEED_POLICY_H_
