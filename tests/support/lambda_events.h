// Lambdas as simulator events, for tests.
//
// Production code arms events as calls to a member of their owner
// (Simulator::ArmTimer<&C::Handler>).  A test that wants an ad-hoc callback
// keeps it here instead: each callable is stored in this object, and its
// event is a call to Fire with the callable's index as the aux word.  The
// object must outlive every event it made.

#ifndef TESTS_SUPPORT_LAMBDA_EVENTS_H_
#define TESTS_SUPPORT_LAMBDA_EVENTS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "src/sim/simulator.h"

namespace dcs::testing {

class LambdaEvents {
 public:
  LambdaEvents() = default;
  // Its events hold its address.
  LambdaEvents(const LambdaEvents&) = delete;
  LambdaEvents& operator=(const LambdaEvents&) = delete;

  // An event record that runs `fn`, to arm in a timer slot
  // (Simulator::ArmTimer).
  EventFn Make(std::function<void()> fn) {
    fns_.push_back(std::move(fn));
    return EventFn::Of<&LambdaEvents::Fire>(this, static_cast<std::int64_t>(fns_.size() - 1));
  }

 private:
  // A deque, so a callback that schedules another does not move itself.
  void Fire(std::int64_t index) { fns_[static_cast<std::size_t>(index)](); }

  std::deque<std::function<void()>> fns_;
};

}  // namespace dcs::testing

#endif  // TESTS_SUPPORT_LAMBDA_EVENTS_H_
