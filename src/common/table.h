// Minimal ASCII table emitter for the benchmark harnesses.
//
// Every bench binary reproduces one table or figure from the paper; this
// class renders the rows the same way the paper reports them, and each
// bench prints it to stdout.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace co {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Add a row; must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Convenience: format doubles/ints into cells.
  static std::string num(double v, int precision = 2);
  static std::string num(std::uint64_t v);
  static std::string num(std::int64_t v);

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace co
