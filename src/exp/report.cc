#include "src/exp/report.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace dcs {

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TextTable::AddRow(std::vector<std::string> cells) {
  assert(cells.size() == headers_.size() && "row width must match headers");
  rows_.push_back(std::move(cells));
}

std::string TextTable::Fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string TextTable::Percent(double fraction, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

void TextTable::Print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ");
      os << row[c];
      os << std::string(widths[c] - row[c].size(), ' ');
    }
    os << " |\n";
  };
  auto print_rule = [&] {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      os << (c == 0 ? "+-" : "-+-") << std::string(widths[c], '-');
    }
    os << "-+\n";
  };
  print_rule();
  print_row(headers_);
  print_rule();
  for (const auto& row : rows_) {
    print_row(row);
  }
  print_rule();
}

void PrintHeading(std::ostream& os, const std::string& title) {
  os << "\n=== " << title << " ===\n\n";
}

}  // namespace dcs
