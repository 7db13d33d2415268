#include "src/kernel/task.h"

#include <utility>

namespace dcs {

Task::Task(Pid pid, std::unique_ptr<Workload> workload, Rng rng)
    : pid_(pid),
      workload_(std::move(workload)),
      profile_(workload_->Profile()),
      rates_(profile_),
      rng_(rng) {}

}  // namespace dcs
