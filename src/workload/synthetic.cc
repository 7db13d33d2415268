#include "src/workload/synthetic.h"

#include <cassert>

namespace dcs {

ConstantUtilizationWorkload::ConstantUtilizationWorkload(double utilization, SimTime quantum)
    : utilization_(utilization), quantum_(quantum) {
  assert(utilization >= 0.0 && utilization <= 1.0);
}

Action ConstantUtilizationWorkload::Next(const WorkloadContext& ctx) {
  if (!spun_) {
    spun_ = true;
    if (utilization_ <= 0.0) {
      return Action::SleepUntil(ctx.now + quantum_, /*jiffy=*/false);
    }
    return Action::SpinUntil(ctx.now + SimTime::FromSecondsF(quantum_.ToSeconds() *
                                                             utilization_));
  }
  spun_ = false;
  if (utilization_ >= 1.0) {
    return Next(ctx);
  }
  return Action::SleepUntil(
      ctx.now + SimTime::FromSecondsF(quantum_.ToSeconds() * (1.0 - utilization_)),
      /*jiffy=*/false);
}

std::vector<double> RectangleWaveSamples(int busy, int idle, int length) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(length));
  const int period = busy + idle;
  for (int i = 0; i < length; ++i) {
    samples.push_back(i % period < busy ? 1.0 : 0.0);
  }
  return samples;
}

}  // namespace dcs
