#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace chs::util {

PowerFit fit_power(const std::vector<double>& xs,
                   const std::vector<double>& ys) {
  PowerFit fit;
  const std::size_t n = std::min(xs.size(), ys.size());
  std::vector<double> lx, ly;
  for (std::size_t i = 0; i < n; ++i) {
    if (xs[i] > 0.0 && ys[i] > 0.0) {
      lx.push_back(std::log(xs[i]));
      ly.push_back(std::log(ys[i]));
    }
  }
  if (lx.size() < 2) return fit;
  const double m = static_cast<double>(lx.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < lx.size(); ++i) {
    sx += lx[i];
    sy += ly[i];
    sxx += lx[i] * lx[i];
    sxy += lx[i] * ly[i];
  }
  const double denom = m * sxx - sx * sx;
  if (denom == 0.0) return fit;  // all x equal: no slope information
  fit.exponent = (m * sxy - sx * sy) / denom;
  fit.coefficient = std::exp((sy - fit.exponent * sx) / m);
  // R² in log space.
  const double ybar = sy / m;
  double ss_res = 0, ss_tot = 0;
  for (std::size_t i = 0; i < lx.size(); ++i) {
    const double pred = std::log(fit.coefficient) + fit.exponent * lx[i];
    ss_res += (ly[i] - pred) * (ly[i] - pred);
    ss_tot += (ly[i] - ybar) * (ly[i] - ybar);
  }
  fit.r_squared = ss_tot == 0.0 ? 1.0 : 1.0 - ss_res / ss_tot;
  return fit;
}

}  // namespace chs::util
