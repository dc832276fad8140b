#include "core/experiment.hpp"

#include <algorithm>
#include <cstdio>

#include "util/check.hpp"

namespace chs::core {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  CHS_CHECK(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::print() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) widths[c] = std::max(widths[c], row[c].size());
  }
  const auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) print_row(row);
}

void Table::print_csv(const std::string& name) const {
  std::printf("# csv %s\n", name.c_str());
  const auto join = [](const std::vector<std::string>& row) {
    std::string out;
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out += ",";
      out += row[i];
    }
    return out;
  };
  std::printf("%s\n", join(headers_).c_str());
  for (const auto& row : rows_) std::printf("%s\n", join(row).c_str());
}

std::string Table::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::fmt(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

namespace {

/// Nearest-rank index for percentile q over n sorted samples:
/// ceil(q/100 * n) - 1, clamped to [0, n).
std::size_t rank_index(std::size_t n, double q) {
  const double pos = q / 100.0 * static_cast<double>(n);
  std::size_t idx = static_cast<std::size_t>(pos);
  if (static_cast<double>(idx) < pos) ++idx;  // ceil
  if (idx > 0) --idx;
  return std::min(idx, n - 1);
}

}  // namespace

Stats stats_of(const std::vector<double>& xs) {
  Stats s;
  if (xs.empty()) return s;
  std::vector<double> sorted(xs);
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  double total = 0.0;
  for (double x : sorted) total += x;
  s.mean = total / static_cast<double>(sorted.size());
  s.p50 = sorted[rank_index(sorted.size(), 50.0)];
  s.p90 = sorted[rank_index(sorted.size(), 90.0)];
  s.p99 = sorted[rank_index(sorted.size(), 99.0)];
  return s;
}

double percentile_of(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return xs[rank_index(xs.size(), q)];
}

}  // namespace chs::core
