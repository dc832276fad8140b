// Shape fitting for the benches.
//
// The paper's claims are asymptotic (O(log² N) rounds, O(log² N) degree
// expansion); the benches verify *shape*, not absolute constants.
// fit_power() is an ordinary least-squares fit of y ≈ c · x^alpha in
// log-log space, so a bench can report "rounds grow like
// (log N)^1.9" next to the theory's exponent 2.
#pragma once

#include <vector>

namespace chs::util {

struct PowerFit {
  double exponent = 0.0;   // alpha in y = c * x^alpha
  double coefficient = 0.0;  // c
  double r_squared = 0.0;  // goodness of fit in log-log space
};

/// Least-squares fit of y = c * x^alpha over strictly positive data; pairs
/// with x <= 0 or y <= 0 are skipped. Needs >= 2 usable points.
PowerFit fit_power(const std::vector<double>& xs,
                   const std::vector<double>& ys);

}  // namespace chs::util
