// Small test-side views of the simulator that no production code needs.

#ifndef TESTS_SUPPORT_FIXTURES_H_
#define TESTS_SUPPORT_FIXTURES_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"

namespace dcs {

// The names MakeApp accepts: the paper's four apps in paper order, plus
// "server".
inline std::vector<std::string> AllAppNames() {
  return {"mpeg", "web", "chess", "editor", "server"};
}

// Tasks that have not exited.
inline std::size_t LiveTasks(const Kernel& kernel) {
  std::size_t n = 0;
  for (const auto& [pid, task] : kernel.tasks()) {
    if (task->state() != TaskState::kExited) {
      ++n;
    }
  }
  return n;
}

}  // namespace dcs

#endif  // TESTS_SUPPORT_FIXTURES_H_
