// Greedy routing over the finished guest topology, plus the robustness
// analysis behind the paper's motivation: Chord keeps routing when nodes
// fail, the bare Cbt scaffold does not (its root is a cut vertex).
//
// A lookup starts at guest s and repeatedly moves to the neighbor (tree
// edges plus kept span edges) that minimizes the clockwise distance to the
// target t, counting guest hops and host hops (a hop between two guests of
// the same host is free at host level). On an undamaged Chord(N) the span
// edges halve the remaining distance, so hops are O(log N).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "routing/route.hpp"
#include "topology/target.hpp"
#include "util/rng.hpp"

namespace chs::routing {

/// Guest-level neighbors of g in the final target topology (CBT tree edges
/// plus kept span edges in both directions).
std::vector<GuestId> guest_neighbors(const topology::TargetSpec& target,
                                     GuestId g, std::uint64_t n_guests);

/// The one greedy guest-level walk: from s, repeatedly move to the neighbor
/// `usable` accepts that is strictly clockwise-closest to t (the first in
/// guest_neighbors order on ties), calling on_hop(from, to) for each move.
/// Stops at t, when no neighbor makes progress, or after hop_budget(N) + 1
/// moves; returns the guest it stopped at.
template <class Usable, class OnHop>
GuestId greedy_walk(const topology::TargetSpec& target, std::uint64_t n_guests,
                    GuestId s, GuestId t, Usable&& usable, OnHop&& on_hop) {
  const std::uint64_t budget = hop_budget(n_guests);
  GuestId cur = s;
  for (std::uint64_t hops = 0; cur != t && hops <= budget; ++hops) {
    GuestId best = cur;
    std::uint64_t best_dist = clockwise(cur, t, n_guests);
    for (GuestId v : guest_neighbors(target, cur, n_guests)) {
      if (!usable(v)) continue;
      const std::uint64_t d = clockwise(v, t, n_guests);
      if (d < best_dist) {
        best_dist = d;
        best = v;
      }
    }
    if (best == cur) break;  // no progress possible
    on_hop(cur, best);
    cur = best;
  }
  return cur;
}

struct LookupResult {
  bool success = false;
  std::uint64_t guest_hops = 0;
  std::uint64_t host_hops = 0;
};

/// Greedy clockwise lookup from s to t. If `alive` is non-null, guests
/// hosted by dead hosts are unusable (the lookup fails if it gets stuck or
/// exceeds the hop budget). `sorted_ids` maps guests to hosts; empty means
/// every guest is its own host.
LookupResult greedy_lookup(const topology::TargetSpec& target,
                           std::uint64_t n_guests, GuestId s, GuestId t,
                           std::span<const NodeId> sorted_ids,
                           const std::vector<bool>* alive = nullptr);

struct LookupStats {
  double mean_guest_hops = 0.0;
  std::uint64_t max_guest_hops = 0;
  double mean_host_hops = 0.0;
  double success_rate = 1.0;
};

/// Sampled all-pairs lookup statistics.
LookupStats lookup_stats(const topology::TargetSpec& target,
                         std::uint64_t n_guests,
                         std::span<const NodeId> sorted_ids,
                         std::size_t samples, util::Rng& rng,
                         const std::vector<bool>* alive = nullptr);

/// Per-host forwarding load under sampled random lookups — the congestion
/// side of the robustness story (§1): Cbt funnels every cross-subtree route
/// through the guest root's host, Chord spreads load across fingers.
struct CongestionStats {
  double mean_load = 0.0;     // mean forwarding events per host
  std::uint64_t max_load = 0; // hottest host's forwarding events
  double imbalance = 0.0;     // max_load / mean_load (1.0 = perfectly even)
  NodeId hottest = 0;
};

/// Congestion of greedy routing over the target topology.
CongestionStats target_congestion(const topology::TargetSpec& target,
                                  std::uint64_t n_guests,
                                  std::span<const NodeId> sorted_ids,
                                  std::size_t samples, util::Rng& rng);

/// Congestion of tree routing (up to the LCA, back down) over the bare Cbt
/// scaffold — the comparison point.
CongestionStats cbt_congestion(std::uint64_t n_guests,
                               std::span<const NodeId> sorted_ids,
                               std::size_t samples, util::Rng& rng);

struct RobustnessPoint {
  double failed_fraction = 0.0;
  double chord_reachability = 0.0;  // reachable ordered host pairs
  double cbt_reachability = 0.0;
};

/// Remove random host subsets of increasing size from the ideal Chord and
/// bare Cbt host graphs; report surviving pairwise reachability (E7).
std::vector<RobustnessPoint> robustness_sweep(
    const std::vector<NodeId>& ids, std::uint64_t n_guests,
    const std::vector<double>& failed_fractions, std::size_t trials,
    util::Rng& rng);

}  // namespace chs::routing
