#include <gtest/gtest.h>

#include <algorithm>

#include "avatar/range.hpp"
#include "graph/generators.hpp"
#include "routing/lookup.hpp"
#include "routing/route.hpp"
#include "topology/chord.hpp"
#include "util/bitops.hpp"

namespace chs::routing {
namespace {

TEST(Routing, GuestNeighborsMatchTopology) {
  const auto target = topology::chord_target();
  const std::uint64_t n = 32;
  const topology::Chord chord(n);
  const topology::Cbt cbt(n);
  for (GuestId g = 0; g < n; ++g) {
    for (GuestId v : guest_neighbors(target, g, n)) {
      EXPECT_TRUE(cbt.is_edge(g, v) || chord.is_finger_edge(g, v))
          << g << " -> " << v;
    }
    // Ring neighbors always present.
    const auto nb = guest_neighbors(target, g, n);
    EXPECT_TRUE(std::count(nb.begin(), nb.end(), (g + 1) % n));
    EXPECT_TRUE(std::count(nb.begin(), nb.end(), (g + n - 1) % n));
  }
}

TEST(Routing, LookupReachesTarget) {
  const auto target = topology::chord_target();
  const std::uint64_t n = 64;
  for (GuestId s : {0ULL, 5ULL, 33ULL, 63ULL}) {
    for (GuestId t : {0ULL, 17ULL, 62ULL}) {
      const auto r = greedy_lookup(target, n, s, t, {});
      EXPECT_TRUE(r.success) << s << " -> " << t;
      if (s == t) {
        EXPECT_EQ(r.guest_hops, 0u);
      }
    }
  }
}

TEST(Routing, HopsAreLogarithmic) {
  const auto target = topology::chord_target();
  for (std::uint64_t n : {64ULL, 256ULL, 1024ULL}) {
    util::Rng rng(7);
    const auto stats = lookup_stats(target, n, {}, 300, rng);
    EXPECT_EQ(stats.success_rate, 1.0) << "n=" << n;
    // Definition-1 fingers stop at span N/4; greedy needs <= ~log N + 3.
    EXPECT_LE(stats.max_guest_hops, 2u * util::ceil_log2(n)) << "n=" << n;
  }
}

TEST(Routing, HostHopsNeverExceedGuestHops) {
  const auto target = topology::chord_target();
  const std::uint64_t n = 256;
  util::Rng rng(11);
  std::vector<NodeId> ids;
  for (NodeId i = 0; i < n; i += 16) ids.push_back(i + 3);
  for (int trial = 0; trial < 50; ++trial) {
    const GuestId s = rng.next_below(n), t = rng.next_below(n);
    const auto r = greedy_lookup(target, n, s, t, ids);
    ASSERT_TRUE(r.success);
    EXPECT_LE(r.host_hops, r.guest_hops);
  }
}

TEST(Routing, FailedHostsReduceSuccess) {
  const auto target = topology::chord_target();
  const std::uint64_t n = 64;
  std::vector<bool> alive(n, true);
  for (std::size_t i = 0; i < n; i += 4) alive[i] = false;  // 25% dead
  util::Rng rng(13);
  const auto stats = lookup_stats(target, n, {}, 400, rng, &alive);
  EXPECT_LT(stats.success_rate, 1.0);
  EXPECT_GT(stats.success_rate, 0.2);  // plenty of detours exist
}

TEST(Routing, CbtFunnelsLoadThroughTheRootChordDoesNot) {
  // The congestion half of the robustness motivation (§1): under uniform
  // random lookups, the scaffold's root lies on roughly half of all tree
  // routes while Chord spreads forwarding over the fingers. Measured at
  // guest granularity (dense ids) so responsible-range skew cannot mask the
  // structural difference.
  const std::uint64_t n = 1024;
  std::vector<NodeId> ids(n);
  for (std::uint64_t i = 0; i < n; ++i) ids[i] = i;
  util::Rng r1(7), r2(7);
  const auto chord =
      target_congestion(topology::chord_target(), n, ids, 4000, r1);
  const auto cbt = cbt_congestion(n, ids, 4000, r2);
  EXPECT_GT(cbt.imbalance, 4.0 * chord.imbalance)
      << "cbt " << cbt.imbalance << " chord " << chord.imbalance;
  // The scaffold's hot spot is the top of the tree: the root or one of its
  // children (each lies on ~half of all routes; sampling picks among them).
  EXPECT_LE(topology::Cbt(n).depth_of(cbt.hottest), 1u) << cbt.hottest;
}

TEST(Routing, CongestionMeanLoadTracksPathLength) {
  // Total forwarding events = samples * interior path length, spread over
  // hosts. Sanity: chord's per-host mean stays small for log-length paths.
  const std::uint64_t n = 256;
  std::vector<NodeId> ids;
  for (std::uint64_t i = 0; i < n; i += 4) ids.push_back(i);
  util::Rng rng(5);
  const std::size_t samples = 1000;
  const auto c =
      target_congestion(topology::chord_target(), n, ids, samples, rng);
  EXPECT_GT(c.mean_load, 0.0);
  EXPECT_LE(c.mean_load, static_cast<double>(samples) *
                             (2.0 * (util::ceil_log2(n) + 1)) / 64.0);
  EXPECT_GE(c.imbalance, 1.0);
}

TEST(Routing, GreedyNumbersArePinned) {
  // Exact guest-level numbers on Chord(1024) over 128 sampled hosts: any
  // change to the greedy walk (neighbor order, tie rule, hop budget, host
  // hop accounting) moves at least one field.
  const std::uint64_t n = 1024;
  const auto target = topology::chord_target();
  util::Rng id_rng(3);
  const auto ids = graph::sample_ids(128, n, id_rng);

  util::Rng r1(7);
  const auto all = lookup_stats(target, n, ids, 500, r1);
  EXPECT_EQ(all.mean_guest_hops, 2350.0 / 500.0);
  EXPECT_EQ(all.max_guest_hops, 10u);
  EXPECT_EQ(all.mean_host_hops, 1704.0 / 500.0);
  EXPECT_EQ(all.success_rate, 1.0);

  std::vector<bool> alive(ids.size(), true);
  for (std::size_t i = 0; i < alive.size(); i += 5) alive[i] = false;
  util::Rng r2(13);
  const auto some = lookup_stats(target, n, ids, 500, r2, &alive);
  EXPECT_EQ(some.mean_guest_hops, 1234.0 / 236.0);
  EXPECT_EQ(some.max_guest_hops, 11u);
  EXPECT_EQ(some.mean_host_hops, 913.0 / 236.0);
  EXPECT_EQ(some.success_rate, 236.0 / 500.0);

  util::Rng r3(5);
  const auto c = target_congestion(target, n, ids, 1000, r3);
  EXPECT_EQ(c.mean_load, 3735.0 / 128.0);
  EXPECT_EQ(c.max_load, 232u);
  EXPECT_EQ(c.imbalance, 232.0 / (3735.0 / 128.0));
  EXPECT_EQ(c.hottest, 308u);
}

// A hand-built host table on the 64-guest ring: range [8, 16), two fwd
// levels that overlap on [24, 32), and a successor hosting guest 16.
RouteTable hand_table() {
  RouteTable rt;
  rt.lo = 8;
  rt.hi = 16;
  rt.fwd.resize(2);
  rt.fwd[0].assign(17, 24, 100);
  rt.fwd[0].assign(24, 32, 101);
  rt.fwd[1].assign(24, 32, 102);
  rt.fwd[1].assign(40, 48, 103);
  rt.succ = 104;
  return rt;
}

const auto kAnyHost = [](NodeId) { return true; };

TEST(Routing, NextHopOfLocalTargetIsNone) {
  const RouteTable rt = hand_table();
  for (GuestId t = rt.lo; t < rt.hi; ++t) {
    EXPECT_EQ(next_hop(rt, t, 64, kAnyHost), kNoneHost) << t;
  }
}

TEST(Routing, NextHopPicksClosestPrecedingGuestAcrossLevelsAndSucc) {
  const RouteTable rt = hand_table();
  EXPECT_EQ(next_hop(rt, 20, 64, kAnyHost), 100u);  // level 0 covers t
  EXPECT_EQ(next_hop(rt, 45, 64, kAnyHost), 103u);  // level 1 covers t
  EXPECT_EQ(next_hop(rt, 16, 64, kAnyHost), 104u);  // succ's guest is t
  EXPECT_EQ(next_hop(rt, 36, 64, kAnyHost), 101u);  // guest 31, 5 short
  EXPECT_EQ(next_hop(rt, 5, 64, kAnyHost), 103u);   // guest 47, across 0
}

TEST(Routing, NextHopSkipsRejectedHosts) {
  const RouteTable rt = hand_table();
  const auto without = [](std::vector<NodeId> rejected) {
    return [rejected](NodeId h) {
      return std::find(rejected.begin(), rejected.end(), h) == rejected.end();
    };
  };
  EXPECT_EQ(next_hop(rt, 36, 64, without({101})), 102u);
  EXPECT_EQ(next_hop(rt, 36, 64, without({101, 102})), 100u);
  EXPECT_EQ(next_hop(rt, 16, 64, without({104})), 103u);
  EXPECT_EQ(next_hop(rt, 36, 64, [](NodeId) { return false; }), kNoneHost);
}

TEST(Routing, NextHopTieGoesToTheEarlierLevel) {
  // Guest 31 is reachable through host 101 (level 0) and host 102
  // (level 1) at the same distance; the scan order decides, and the KV
  // data plane's traffic (and the serve benchmark digest) depends on it.
  const RouteTable rt = hand_table();
  EXPECT_EQ(next_hop(rt, 36, 64, kAnyHost), 101u);
  EXPECT_EQ(next_hop(rt, 26, 64, kAnyHost), 101u);
  // succ is scanned last: a level that reaches succ's guest 16 wins it.
  RouteTable tied = rt;
  tied.fwd[1].assign(16, 17, 105);
  EXPECT_EQ(next_hop(tied, 16, 64, kAnyHost), 105u);
}

// The scan loop next_hop replaced, kept as the reference: every candidate is
// checked with `usable`, and the strictly closer one wins, so ties go to the
// earlier scan position.
template <class Usable>
NodeId reference_next_hop(const RouteTable& rt, GuestId t, std::uint64_t n,
                          Usable&& usable) {
  const auto dist = [n](GuestId from, GuestId to) {
    return (to + n - from) % n;
  };
  if (t >= rt.lo && t < rt.hi) return kNoneHost;
  NodeId best_host = kNoneHost;
  std::uint64_t best_dist = ~std::uint64_t{0};
  const auto consider = [&](GuestId g, NodeId host) {
    if (host == kNoneHost || !usable(host)) return;
    const std::uint64_t d = dist(g, t);
    if (d < best_dist) {
      best_dist = d;
      best_host = host;
    }
  };
  for (const auto& level : rt.fwd) {
    for (const auto& e : level.entries()) {
      GuestId g;
      if (t >= e.lo && t < e.hi) {
        g = t;
      } else {
        g = e.hi - 1;
        if (dist(e.lo, t) < dist(g, t)) g = e.lo;
      }
      consider(g, e.value);
    }
  }
  if (rt.succ != kNoneHost) consider(rt.hi % n, rt.succ);
  return best_host;
}

constexpr NodeId kFirstHost = 100;

// A random route table on the n-guest ring. Each level is a run of disjoint
// intervals between sorted cut points; on a coarse grid the levels share cut
// points, so equally close candidates across levels are common. Hosts come
// from a pool of `hosts`, so one host often appears at several positions.
RouteTable random_table(util::Rng& rng, std::uint64_t n, std::uint64_t hosts,
                        bool coarse) {
  const std::uint64_t grid = coarse ? std::max<std::uint64_t>(n / 8, 1) : 1;
  const auto cut = [&] { return rng.next_below(n / grid + 1) * grid; };
  RouteTable rt;
  rt.lo = cut();
  rt.hi = cut();
  if (rt.lo > rt.hi) std::swap(rt.lo, rt.hi);
  if (rt.lo == rt.hi) {
    if (rt.hi == n) {
      --rt.lo;
    } else {
      ++rt.hi;
    }
  }
  rt.fwd.resize(1 + rng.next_below(6));
  for (auto& level : rt.fwd) {
    std::vector<std::uint64_t> cuts{0, n};  // entries start at 0 and end at n
    for (std::uint64_t i = rng.next_below(8); i > 0; --i) cuts.push_back(cut());
    std::sort(cuts.begin(), cuts.end());
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      if (rng.next_below(4) == 0) continue;  // a gap in the level's cover
      // An entry may also name no host at all.
      level.assign(cuts[i], cuts[i + 1],
                   rng.next_below(8) == 0 ? kNoneHost
                                          : kFirstHost + rng.next_below(hosts));
    }
  }
  rt.succ = rng.next_below(5) == 0 ? kNoneHost
                                   : kFirstHost + rng.next_below(hosts);
  return rt;
}

TEST(Routing, NextHopMatchesTheFullScanReference) {
  util::Rng rng(2201);
  std::uint64_t compared = 0, found = 0, ties = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::uint64_t n = std::uint64_t{1} << (2 + rng.next_below(9));
    const std::uint64_t hosts = 1 + rng.next_below(12);
    const RouteTable rt = random_table(rng, n, hosts, trial % 2 == 0);
    // Usable masks over the host pool: all, none, a random quarter and a
    // random three quarters.
    std::vector<std::vector<bool>> masks{std::vector<bool>(hosts, true),
                                         std::vector<bool>(hosts, false)};
    for (std::uint64_t keep_of_4 : {1, 3}) {
      std::vector<bool> m(hosts);
      for (std::uint64_t h = 0; h < hosts; ++h) {
        m[h] = rng.next_below(4) < keep_of_4;
      }
      masks.push_back(std::move(m));
    }
    for (int k = 0; k < 8; ++k) {
      const GuestId t = rng.next_below(n);
      // A tie: two level entries at the nearest distance to a remote t.
      std::uint64_t nearest = ~std::uint64_t{0}, at_nearest = 0;
      for (const auto& level : rt.fwd) {
        for (const auto& e : level.entries()) {
          const GuestId g = t >= e.lo && t < e.hi ? t : e.hi - 1;
          const std::uint64_t d = clockwise(g, t, n);
          if (d < nearest) {
            nearest = d;
            at_nearest = 0;
          }
          if (d == nearest) ++at_nearest;
        }
      }
      ties += at_nearest > 1 && !(t >= rt.lo && t < rt.hi);
      for (const auto& mask : masks) {
        const auto usable = [&](NodeId h) { return mask[h - kFirstHost]; };
        const NodeId want = reference_next_hop(rt, t, n, usable);
        ASSERT_EQ(next_hop(rt, t, n, usable), want)
            << "trial " << trial << " n=" << n << " t=" << t;
        ++compared;
        found += want != kNoneHost;
      }
    }
  }
  // The inputs reach every branch: hits, misses and ties.
  EXPECT_EQ(compared, 3000u * 8u * 4u);
  EXPECT_GT(found, compared / 4);
  EXPECT_LT(found, compared);
  EXPECT_GT(ties, 1000u);
}

TEST(Routing, NextHopChecksOnlyTheNearestCandidateWhenItIsUsable) {
  util::Rng rng(2202);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t n = std::uint64_t{1} << (2 + rng.next_below(9));
    const std::uint64_t hosts = 1 + rng.next_below(12);
    const RouteTable rt = random_table(rng, n, hosts, trial % 2 == 0);
    const GuestId t = rng.next_below(n);
    const NodeId nearest = reference_next_hop(rt, t, n, kAnyHost);
    if (nearest == kNoneHost) continue;
    // Any mask that accepts the nearest candidate's host.
    std::vector<bool> mask(hosts);
    for (std::uint64_t h = 0; h < hosts; ++h) mask[h] = rng.next_bool();
    mask[nearest - kFirstHost] = true;
    int calls = 0;
    const auto usable = [&](NodeId h) {
      ++calls;
      return static_cast<bool>(mask[h - kFirstHost]);
    };
    ASSERT_EQ(next_hop(rt, t, n, usable), nearest) << "trial " << trial;
    ASSERT_EQ(calls, 1) << "trial " << trial;
  }
}

TEST(Routing, RobustnessChordBeatsCbt) {
  // The paper's motivation: the Cbt scaffold alone is fragile (the root is
  // a cut vertex); Chord keeps most pairs reachable at the same failure
  // rate.
  std::vector<NodeId> ids;
  for (NodeId i = 0; i < 64; ++i) ids.push_back(i);
  util::Rng rng(17);
  const auto points = robustness_sweep(ids, 64, {0.1, 0.25}, 5, rng);
  ASSERT_EQ(points.size(), 2u);
  for (const auto& pt : points) {
    EXPECT_GT(pt.chord_reachability, pt.cbt_reachability)
        << "failed=" << pt.failed_fraction;
  }
  EXPECT_GT(points[0].chord_reachability, 0.95);
}

}  // namespace
}  // namespace chs::routing
