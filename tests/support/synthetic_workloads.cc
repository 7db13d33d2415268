#include "tests/support/synthetic_workloads.h"

#include <cassert>

#include "src/sim/rng.h"
#include "src/workload/demand.h"

namespace dcs {

RectangleWaveWorkload::RectangleWaveWorkload(int busy_quanta, int idle_quanta,
                                             SimTime quantum, int cycles)
    : busy_(quantum * busy_quanta), idle_(quantum * idle_quanta), cycles_remaining_(cycles),
      name_("rect" + std::to_string(busy_quanta) + "_" + std::to_string(idle_quanta)) {
  assert(busy_quanta >= 1 && idle_quanta >= 0);
}

Action RectangleWaveWorkload::Next(const WorkloadContext& ctx) {
  if (!in_busy_) {
    if (cycles_remaining_ == 0) {
      return Action::Exit();
    }
    if (cycles_remaining_ > 0) {
      --cycles_remaining_;
    }
    in_busy_ = true;
    return Action::SpinUntil(ctx.now + busy_);
  }
  in_busy_ = false;
  if (idle_ == SimTime::Zero()) {
    return Next(ctx);
  }
  return Action::SleepUntil(ctx.now + idle_, /*jiffy=*/false);
}

ComputeOnceWorkload::ComputeOnceWorkload(double base_cycles, MemoryProfile profile)
    : base_cycles_(base_cycles), profile_(profile) {}

Action ComputeOnceWorkload::Next(const WorkloadContext& ctx) {
  if (!started_) {
    started_ = true;
    return Action::Compute(base_cycles_);
  }
  if (!done_) {
    done_ = true;
    completed_at_ = ctx.now;
  }
  return Action::Exit();
}

PoissonBurstWorkload::PoissonBurstWorkload(SimTime idle_mean, double burst_ms_at_top,
                                           MemoryProfile profile)
    : idle_mean_(idle_mean), burst_ms_(burst_ms_at_top), profile_(profile) {}

Action PoissonBurstWorkload::Next(const WorkloadContext& ctx) {
  if (!bursting_) {
    bursting_ = true;
    const double gap = ctx.rng->Exponential(idle_mean_.ToSeconds());
    return Action::SleepUntil(ctx.now + SimTime::FromSecondsF(gap), /*jiffy=*/false);
  }
  bursting_ = false;
  const double ms = ctx.rng->Exponential(burst_ms_);
  return Action::Compute(BaseCyclesForMsAtTop(ms, profile_));
}

}  // namespace dcs
