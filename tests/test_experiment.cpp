// The experiment kit the benches are built from: table formatting (stdout
// capture) and summary statistics.
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace chs::core {
namespace {

TEST(TableTest, FmtFixedPrecisionAndIntegers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(3.14159, 0), "3");
  EXPECT_EQ(Table::fmt(0.5, 3), "0.500");
  EXPECT_EQ(Table::fmt(std::uint64_t{0}), "0");
  EXPECT_EQ(Table::fmt(std::uint64_t{18446744073709551615ULL}),
            "18446744073709551615");
}

TEST(TableTest, PrintAlignsColumnsAndCsvRoundTrips) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  ::testing::internal::CaptureStdout();
  t.print();
  t.print_csv("unit");
  const std::string out = ::testing::internal::GetCapturedStdout();
  // Aligned table: header row, rule, two rows.
  EXPECT_NE(out.find("name   value"), std::string::npos);
  EXPECT_NE(out.find("alpha  1"), std::string::npos);
  // CSV block: marker line then exact comma rows.
  EXPECT_NE(out.find("# csv unit\nname,value\nalpha,1\nb,22222\n"),
            std::string::npos);
}

TEST(TableTest, RowAritiesAreEnforced) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "");
}

TEST(StatsOf, EmptyAndBasics) {
  const auto e = stats_of({});
  EXPECT_EQ(e.mean, 0.0);
  EXPECT_EQ(e.p50, 0.0);
  const auto s = stats_of({4.0, 1.0, 7.0});
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
  EXPECT_DOUBLE_EQ(s.p50, 4.0);
  EXPECT_DOUBLE_EQ(s.p90, 7.0);
  EXPECT_DOUBLE_EQ(s.p99, 7.0);
}

TEST(StatsOf, NearestRankPercentiles) {
  // 1..100: nearest-rank pq is exactly q for a 100-sample 1-based ladder.
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  const auto s = stats_of(xs);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p90, 90.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 0.0), 1.0);
  // Percentiles are sample values, never interpolated.
  const auto t = stats_of({1.0, 1000.0});
  EXPECT_DOUBLE_EQ(t.p50, 1.0);
  EXPECT_DOUBLE_EQ(t.p90, 1000.0);
  const auto one = stats_of({42.0});
  EXPECT_DOUBLE_EQ(one.p50, 42.0);
  EXPECT_DOUBLE_EQ(one.p99, 42.0);
}

}  // namespace
}  // namespace chs::core
