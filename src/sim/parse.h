// Full-string number parsing for the text grammars: flags, governor specs,
// fault plans and trace magnitudes.  Unlike atoi/strtod alone, "4abc", ""
// and out-of-range values are errors, and so are inf and nan, which no input
// means.

#ifndef SRC_SIM_PARSE_H_
#define SRC_SIM_PARSE_H_

#include <string>

namespace dcs {

// Parses a base-10 int.  On failure returns false and leaves *out alone.
bool ParseInt(const std::string& s, int* out);

// Parses a finite double.  On failure returns false and leaves *out alone.
bool ParseDouble(const std::string& s, double* out);

}  // namespace dcs

#endif  // SRC_SIM_PARSE_H_
