// Deterministic, splittable random number generation.
//
// Every stochastic decision in the simulator (initial topologies, host id
// sampling, leader/follower coin flips, candidate sampling) draws from a
// SplitMix64-based generator so that a (seed, node id, purpose) triple fully
// determines a run. Reproducibility matters more than statistical perfection
// for these experiments; SplitMix64 passes BigCrush-level tests and is the
// standard seeding primitive.
#pragma once

#include <cstdint>

namespace chs::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed ^ kGolden) {}

  /// Serialization only (persist/io.hpp): a default-constructed generator is
  /// Rng(0) and is expected to be overwritten by persist_fields immediately.
  Rng() : Rng(0) {}

  /// Checkpoint/restore (DESIGN.md D9): the entire generator is one word of
  /// state, so a restored stream continues bit-for-bit.
  template <typename A>
  void persist_fields(A& a) {
    a(state_);
  }

  /// Next raw 64-bit value (SplitMix64).
  std::uint64_t next_u64() {
    std::uint64_t z = (state_ += kGolden);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform value in [0, bound); bound must be > 0. Uses Lemire rejection
  /// to avoid modulo bias.
  std::uint64_t next_below(std::uint64_t bound);

  /// Fair coin.
  bool next_bool() { return (next_u64() & 1) != 0; }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Derive an independent stream, e.g. one per node.
  ///
  /// The stream id is avalanched through the SplitMix64 finalizer before it
  /// touches the parent state. The original scheme combined the raw
  /// `stream * kGolden` — but kGolden is also the generator's own state
  /// increment, so all streams live on the one SplitMix64 orbit and that
  /// scheme parked them at *id-proportional* lags: whenever the xor with the
  /// parent state carried like an addition, nodes s and s + k replayed each
  /// other's exact draw sequences k steps apart. Two surviving cluster
  /// roots in that regime draw identical leader/follower coins and
  /// identical epoch jitter forever — a matching livelock no jitter can
  /// break (lollipop n=20 N=128 seed=3; tests/test_util.cpp pins the
  /// decorrelation, tests/test_livelock_regression.cpp the convergence).
  /// Avalanching makes the orbit offsets pseudorandom, so overlap within
  /// any feasible run length is vanishingly unlikely.
  Rng split(std::uint64_t stream) {
    std::uint64_t z = stream + 0x2545f4914f6cdd1dULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    Rng r(state_ ^ z);
    r.next_u64();
    return r;
  }

 private:
  static constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  std::uint64_t state_;
};

}  // namespace chs::util
