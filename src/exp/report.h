// Plain-text table and CSV rendering for the bench binaries, which print
// the same rows the paper's tables report.

#ifndef SRC_EXP_REPORT_H_
#define SRC_EXP_REPORT_H_

#include <ostream>
#include <string>
#include <vector>

namespace dcs {

// A simple left/right-aligned text table.
class TextTable {
 public:
  // `headers` fixes the column count; rows must match it.
  explicit TextTable(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);

  // Formatting helpers.
  static std::string Fixed(double value, int decimals);
  static std::string Percent(double fraction, int decimals = 1);

  void Print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Prints a section heading in a consistent style.
void PrintHeading(std::ostream& os, const std::string& title);

}  // namespace dcs

#endif  // SRC_EXP_REPORT_H_
