#include "src/kernel/run_queue.h"

#include <algorithm>
#include <cassert>

namespace dcs {

void RunQueue::Push(Pid pid) {
  assert(!Contains(pid) && "pid already on run queue");
  queue_.push_back(pid);
}

Pid RunQueue::Pop() {
  assert(!queue_.empty());
  const Pid pid = queue_.front();
  queue_.pop_front();
  return pid;
}

bool RunQueue::Contains(Pid pid) const {
  return std::find(queue_.begin(), queue_.end(), pid) != queue_.end();
}

}  // namespace dcs
