// util/stats: the log-log power fit the benches use to report growth
// exponents.
#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace chs::util {
namespace {

TEST(FitPower, RecoversExactPowerLaw) {
  std::vector<double> xs, ys;
  for (double x : {2.0, 4.0, 8.0, 16.0, 32.0}) {
    xs.push_back(x);
    ys.push_back(3.5 * std::pow(x, 1.7));
  }
  const auto fit = fit_power(xs, ys);
  EXPECT_NEAR(fit.exponent, 1.7, 1e-9);
  EXPECT_NEAR(fit.coefficient, 3.5, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitPower, NoisyDataStillCloseWithGoodR2) {
  util::Rng rng(7);
  std::vector<double> xs, ys;
  for (int i = 1; i <= 40; ++i) {
    const double x = static_cast<double>(i);
    const double noise = 0.9 + 0.2 * rng.next_double();
    xs.push_back(x);
    ys.push_back(2.0 * x * x * noise);
  }
  const auto fit = fit_power(xs, ys);
  EXPECT_NEAR(fit.exponent, 2.0, 0.05);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(FitPower, SkipsNonPositiveAndDegenerateInput) {
  // Non-positive pairs are dropped; with fewer than two usable points the
  // fit reports zeros rather than NaNs.
  const auto too_few = fit_power({0.0, -1.0, 5.0}, {1.0, 2.0, 3.0});
  EXPECT_EQ(too_few.exponent, 0.0);
  EXPECT_EQ(too_few.coefficient, 0.0);
  // All x equal: slope is undefined, reported as zeros.
  const auto flat = fit_power({3.0, 3.0, 3.0}, {1.0, 2.0, 3.0});
  EXPECT_EQ(flat.exponent, 0.0);
}

TEST(FitPower, ConstantSeriesHasZeroExponent) {
  const auto fit = fit_power({1.0, 2.0, 4.0, 8.0}, {5.0, 5.0, 5.0, 5.0});
  EXPECT_NEAR(fit.exponent, 0.0, 1e-12);
  EXPECT_NEAR(fit.coefficient, 5.0, 1e-9);
}

}  // namespace
}  // namespace chs::util
