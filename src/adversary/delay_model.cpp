#include "adversary/delay_model.hpp"

#include <cmath>

namespace chs::adversary {

bool delay_model_by_name(const std::string& s, DelayModel& out) {
  if (s == "uniform") { out = DelayModel::kUniform; return true; }
  if (s == "lognormal") { out = DelayModel::kLognormal; return true; }
  if (s == "bimodal-spike") { out = DelayModel::kBimodalSpike; return true; }
  return false;
}

double edge_character(std::uint64_t from, std::uint64_t to) {
  std::uint64_t x =
      from * 0xd6e8feb86659fd93ULL ^ (to + 0x2545f4914f6cdd1dULL);
  x ^= x >> 32;
  x *= 0xd6e8feb86659fd93ULL;
  x ^= x >> 32;
  x *= 0xd6e8feb86659fd93ULL;
  x ^= x >> 32;
  // 53-bit mantissa, same construction as Rng::next_double.
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

std::uint64_t sample_delay(DelayModel m, std::uint64_t from, std::uint64_t to,
                           std::uint32_t max_delay, util::Rng& rng) {
  const std::uint64_t d = max_delay;
  if (d <= 1) return 1;
  const double h = edge_character(from, to);
  switch (m) {
    case DelayModel::kUniform:
      return 1 + rng.next_below(d);
    case DelayModel::kLognormal: {
      // Box-Muller over two stream draws; the edge character places the
      // median between 1 and the midpoint of the band.
      const double u1 = 1.0 - rng.next_double();  // (0, 1] — log stays finite
      const double u2 = rng.next_double();
      const double z =
          std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
      const double base = 1.0 + h * static_cast<double>(d - 1) * 0.5;
      const double x = base * std::exp(0.6 * z);
      if (!(x > 1.0)) return 1;  // also catches NaN
      if (x >= static_cast<double>(d)) return d;
      return static_cast<std::uint64_t>(x);
    }
    case DelayModel::kBimodalSpike: {
      // Fast path most rounds, a full-window spike on a per-edge fraction
      // of messages: p in [0.05, 0.15) by edge character.
      const double p_spike = 0.05 + 0.1 * h;
      return rng.next_double() < p_spike ? d : 1;
    }
  }
  return 1;
}

}  // namespace chs::adversary
