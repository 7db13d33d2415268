#include "src/sim/parse.h"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

namespace dcs {

bool ParseInt(const std::string& s, int* out) {
  if (s.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size() || v < INT_MIN || v > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  // A budget of inf seconds would overflow the clock it is added to, and a
  // nan threshold compares false both ways, so it passes every range check.
  if (errno != 0 || end != s.c_str() + s.size() || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace dcs
