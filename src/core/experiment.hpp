// Shared experiment harness: aligned-table printing and small statistics
// for the benches (E1-E10). Benches print both a human-readable table and an
// optional CSV block so results can be archived in EXPERIMENTS.md. Cold-start
// sweeps (E1, E3, E6) run their points as campaign jobs (campaign/runner.hpp)
// rather than through a driver of their own.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace chs::core {

/// Fixed-width table printer (stdout).
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  void print() const;
  /// Comma-separated dump with a leading "# csv" marker line.
  void print_csv(const std::string& name) const;

  static std::string fmt(double v, int precision = 2);
  static std::string fmt(std::uint64_t v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// The repo keeps two quantile definitions, one per kind of input:
//   * core::percentile_of (below) takes the nearest rank over raw samples.
//     It backs Stats, so the campaign report's aggregates use it.
//   * obs::lat_quantile (obs/series.hpp) returns the inclusive upper edge
//     of a log2 bucket. Latency histograms use it: their raw samples are
//     gone, and bucket counts are what survives series downsampling.
struct Stats {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  // Nearest-rank percentiles (p50 = median). Exact sample values, never
  // interpolated, so integer-valued inputs keep integer-valued percentiles
  // and reports stay byte-stable across platforms.
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};
Stats stats_of(const std::vector<double>& xs);

/// Nearest-rank percentile of q in [0, 100]: the smallest sample >= q% of
/// the distribution. xs need not be sorted; empty input yields 0.
double percentile_of(std::vector<double> xs, double q);

}  // namespace chs::core
