// Per-edge WAN latency models (DESIGN.md D11). The engine's default delay
// law draws uniform [1, D] from the per-sender RNG stream; a DelayModel
// replaces the *distribution* while keeping the same stream discipline —
// one draw sequence per sender, consumed in the serial apply phase — so
// traces stay bit-identical at any worker count. "uniform" is the identity
// model: scenarios that name it (or name nothing) install no sampler at
// all, which is how every pre-existing golden stays byte-identical.
//
// Each edge gets a deterministic *character* h in [0, 1) hashed from the
// ordered (from, to) pair: under lognormal it scales the edge's median
// (near links vs far links), under bimodal-spike it sets the spike
// probability. The character never consumes RNG, so edges differ from each
// other while the per-sender draw count stays one-per-message.
//
// All samples clamp into [1, D] where D is the scenario's `delay` bound:
// the protocol's timeout/slack budgets are derived from D, so a model may
// reshape the distribution but must not exceed the contract.
#pragma once

#include <cstdint>
#include <string>

#include "util/rng.hpp"

namespace chs::adversary {

enum class DelayModel : std::uint8_t {
  kUniform = 0,       // engine default: uniform [1, D], no sampler installed
  kLognormal = 1,     // heavy-tailed per-edge latency around an edge median
  kBimodalSpike = 2,  // mostly 1, occasional full-D spike (bufferbloat)
};

/// Strict parse of a .scn `delay-model` token. Returns false on an unknown
/// name, leaving `out` untouched.
bool delay_model_by_name(const std::string& s, DelayModel& out);

/// The per-edge character in [0, 1): a pure avalanche hash of (from, to).
double edge_character(std::uint64_t from, std::uint64_t to);

/// Draw one delay in [1, max_delay] for a message from -> to. Consumes
/// exactly the sender stream draws the model needs (lognormal: 2 doubles;
/// bimodal-spike: 1 double). kUniform callers should not get here — the
/// campaign installs no sampler for it — but it falls back to the engine's
/// own law (1 + next_below(D)) for completeness.
std::uint64_t sample_delay(DelayModel m, std::uint64_t from, std::uint64_t to,
                           std::uint32_t max_delay, util::Rng& rng);

}  // namespace chs::adversary
