// Tunable parameters of the self-stabilizing Avatar(Cbt)+Chord protocol.
//
// All round budgets are multiples of (log N + 1) so the polylogarithmic
// complexity claims are preserved for every setting; the defaults follow the
// constants used in the paper's proofs where it states them (one PIF wave is
// at most 2(log N + 1) rounds) and otherwise use small constants validated by
// the E8 ablation bench.
#pragma once

#include <cstdint>

#include "topology/target.hpp"
#include "util/bitops.hpp"

namespace chs::stabilizer {

struct Params {
  /// N: the guest-network size; all host ids must lie in [0, N).
  std::uint64_t n_guests = 64;

  /// Target topology built over the Cbt scaffold (chord_target() reproduces
  /// the paper; bichord/hypercube are the §6 extension instantiations).
  topology::TargetSpec target = topology::chord_target();

  /// D2: if true (paper-faithful), a PIF wave advances one *guest* tree level
  /// per round even within a host; if false, only inter-host hops cost a
  /// round (ablation E8).
  bool per_guest_hop = true;

  /// Probability (numerator over 2^16) that a cluster root plays leader in a
  /// matching epoch; the paper uses a fair coin.
  std::uint32_t leader_prob_u16 = 32768;

  /// Matching-epoch length in units of (log N + 1) rounds. Must cover one
  /// poll wave (2 units), the follow-request route (2 units), and slack.
  std::uint32_t epoch_units = 8;

  /// Uniform random extension of each epoch, in units of (log N + 1)
  /// rounds. Desynchronizes cluster clocks: with zero jitter two clusters
  /// hold a constant relative phase forever and can livelock with merge
  /// requests perpetually landing in the peer's dead window (see
  /// cluster.cpp, start_epoch).
  std::uint32_t epoch_jitter_units = 4;

  /// Merge-zip round budget in units of (log N + 1); a zip resolves one tree
  /// level per <= 3 rounds, so 6 units is ample. Exceeding it is a fault.
  std::uint32_t merge_budget_units = 8;

  /// PIF-wave round budget in units of (log N + 1); one wave needs 2 units.
  std::uint32_t wave_budget_units = 4;

  /// Idle rounds the root inserts between consecutive PIF waves so that
  /// finger notes from the previous wave settle (see DESIGN.md, chord build).
  std::uint32_t inter_wave_grace = 2;

  /// Asynchrony slack: when the engine delays messages by up to d rounds
  /// (Engine::set_max_message_delay), set this to d so every round budget
  /// (epochs, merges, waves, grace gaps) stretches accordingly.
  std::uint32_t delay_slack = 1;

  std::uint32_t log_n_plus_1() const {
    return util::ceil_log2(n_guests) + 1;
  }
  std::uint64_t epoch_rounds() const {
    return static_cast<std::uint64_t>(epoch_units) * log_n_plus_1() * delay_slack;
  }
  std::uint64_t epoch_jitter_rounds() const {
    return static_cast<std::uint64_t>(epoch_jitter_units) * log_n_plus_1() *
           delay_slack;
  }
  std::uint64_t merge_budget_rounds() const {
    return static_cast<std::uint64_t>(merge_budget_units) * log_n_plus_1() *
           delay_slack;
  }
  std::uint64_t wave_budget_rounds() const {
    return static_cast<std::uint64_t>(wave_budget_units) * log_n_plus_1() *
           delay_slack;
  }
  std::uint64_t grace_rounds() const {
    return static_cast<std::uint64_t>(inter_wave_grace) * delay_slack;
  }
};

}  // namespace chs::stabilizer
