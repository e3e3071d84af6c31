// Unit tests: ASCII table emitter.
#include <gtest/gtest.h>

#include <sstream>

#include "src/common/table.h"

namespace co {
namespace {

TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name        | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer-name | 22    |"), std::string::npos);
  // 3 separator lines + header + 2 rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 6);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), std::logic_error);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.0, 0), "3");
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::num(std::int64_t{-7}), "-7");
}

}  // namespace
}  // namespace co
