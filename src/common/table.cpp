#include "src/common/table.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "src/common/expect.h"

namespace co {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  CO_EXPECT(!headers_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  CO_EXPECT_MSG(cells.size() == headers_.size(),
                "row has " << cells.size() << " cells, expected "
                           << headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string Table::num(std::uint64_t v) { return std::to_string(v); }
std::string Table::num(std::int64_t v) { return std::to_string(v); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto line = [&] {
    os << '+';
    for (const auto w : widths) {
      for (std::size_t i = 0; i < w + 2; ++i) os << '-';
      os << '+';
    }
    os << '\n';
  };
  auto emit = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << ' ' << cells[c];
      for (std::size_t i = cells[c].size(); i < widths[c]; ++i) os << ' ';
      os << " |";
    }
    os << '\n';
  };

  line();
  emit(headers_);
  line();
  for (const auto& row : rows_) emit(row);
  line();
}

}  // namespace co
