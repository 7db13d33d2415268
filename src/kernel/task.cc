#include "src/kernel/task.h"

#include <utility>

namespace dcs {

Task::Task(Pid pid, std::unique_ptr<Workload> workload, Rng rng, std::size_t wake_timer)
    : pid_(pid),
      workload_(std::move(workload)),
      profile_(workload_->Profile()),
      rates_(profile_),
      rng_(rng),
      wake_timer_(wake_timer) {}

}  // namespace dcs
