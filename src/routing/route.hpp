// The one greedy routing rule of the built overlay (DESIGN.md D13), used by
// the data plane, dht::KvProtocol.
//
// A host's RouteTable is exactly what the stabilizer left behind: its
// responsible range [lo, hi) and the per-level fwd interval maps ("who hosts
// my range shifted by +2^k"), plus the host of the next range clockwise. A
// message for guest t is forwarded Chord-style (Stoica et al., SIGCOMM 2001)
// to the usable neighbor hosting the guest that precedes t most closely on
// the ring; the ring level guarantees progress, the top levels make it
// logarithmic. The caller decides which neighbors are usable (the KV plane:
// current neighbors whose heartbeat is live).
//
// dht::make_kv_engine is the hand-off from the maintenance plane to the
// data plane: it copies the host graph and every host's RouteTable out of a
// converged stabilizer engine.
#pragma once

#include <cstdint>
#include <vector>

#include "stabilizer/state.hpp"
#include "util/bitops.hpp"
#include "util/check.hpp"
#include "util/interval_map.hpp"

namespace chs::routing {

using graph::NodeId;
using topology::GuestId;

inline constexpr NodeId kNoneHost = ~std::uint64_t{0};
static_assert(kNoneHost == stabilizer::kNone);

/// Distance from guest `from` forward (clockwise) to guest `to` on the
/// N-guest ring; both must lie in [0, n).
inline std::uint64_t clockwise(GuestId from, GuestId to, std::uint64_t n) {
  CHS_DCHECK(from < n && to < n);
  return to >= from ? to - from : to + n - from;
}

/// Hop budget of one greedy route on an N-guest ring: O(log N) with slack.
/// Each walk applies its own comparison against it.
inline std::uint64_t hop_budget(std::uint64_t n) {
  return 4 * (util::ceil_log2(n) + 2);
}

struct RouteTable {
  std::uint64_t lo = 0, hi = 0;                // responsible range
  std::vector<util::IntervalMap<NodeId>> fwd;  // level k: hosts of range+2^k
  NodeId succ = kNoneHost;
};

/// Closest-preceding-finger next hop for target t: among all guests reachable
/// in one hop (the images of my range under +2^k, then my successor's range
/// start), the host of the one that precedes t most closely, considering only
/// hosts `usable(host)` accepts. The scan order is fixed (levels in order,
/// then succ) and the first of equally close candidates wins. Returns
/// kNoneHost when t is local or no usable neighbor exists; the winner may
/// make no progress at all, so callers bound their walks by hop_budget.
///
/// Candidates are ranked by (distance to t, scan position), and the answer
/// is the first usable one in that order. Each pass over the table is pure
/// arithmetic and picks the best candidate ranked after the last rejected
/// one; only that candidate is handed to `usable`. With every host usable
/// that is one pass and one check; each rejected candidate costs one more
/// pass.
template <class Usable>
NodeId next_hop(const RouteTable& rt, GuestId t, std::uint64_t n,
                Usable&& usable) {
  if (t >= rt.lo && t < rt.hi) return kNoneHost;  // local
  const GuestId succ_guest = rt.hi % n;
  // Rank of the last rejected candidate: a pass skips it and everything
  // ranked before it. Scan positions start at 1, so the initial (0, 0)
  // skips nothing.
  std::uint64_t floor_dist = 0;
  std::size_t floor_pos = 0;
  while (true) {
    NodeId best_host = kNoneHost;
    std::uint64_t best_dist = ~std::uint64_t{0};
    std::size_t best_pos = 0, pos = 0;
    const auto consider = [&](GuestId g, NodeId host) {
      ++pos;
      // distance from g forward to t; g must not overshoot (g == t allowed).
      const std::uint64_t d = clockwise(g, t, n);
      if (d < best_dist && host != kNoneHost &&
          (d > floor_dist || (d == floor_dist && pos > floor_pos))) {
        best_dist = d;
        best_host = host;
        best_pos = pos;
      }
    };
    for (const auto& level : rt.fwd) {
      for (const auto& e : level.entries()) {
        // The guest in [e.lo, e.hi) closest-preceding t: t itself, else the
        // last one (entries never wrap, so distance to t falls along them).
        consider(t >= e.lo && t < e.hi ? t : e.hi - 1, e.value);
      }
    }
    consider(succ_guest, rt.succ);
    if (best_host == kNoneHost || usable(best_host)) return best_host;
    floor_dist = best_dist;
    floor_pos = best_pos;
  }
}

}  // namespace chs::routing
