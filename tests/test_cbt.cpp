// Cbt geometry: shape invariants, parent/child consistency, and the
// fragment/crossing-edge decomposition that the wave engine and merge zip
// rely on. Mostly property-style sweeps over many N and ranges.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "topology/cbt.hpp"
#include "util/rng.hpp"

namespace chs::topology {
namespace {

TEST(Cbt, RootAndDepthSmall) {
  Cbt t(7);
  EXPECT_EQ(t.root(), 3u);
  EXPECT_EQ(t.depth(), 2u);
  EXPECT_EQ(t.depth_of(3), 0u);
  EXPECT_EQ(t.depth_of(1), 1u);
  EXPECT_EQ(t.depth_of(0), 2u);
}

TEST(Cbt, SingleNode) {
  Cbt t(1);
  EXPECT_EQ(t.root(), 0u);
  EXPECT_EQ(t.depth(), 0u);
  EXPECT_FALSE(t.parent(0).has_value());
  EXPECT_TRUE(t.children(0).empty());
}

TEST(Cbt, ParentChildMutual) {
  for (std::uint64_t n : {2ULL, 3ULL, 8ULL, 15ULL, 16ULL, 100ULL, 1024ULL}) {
    Cbt t(n);
    for (GuestId g = 0; g < n; ++g) {
      for (GuestId c : t.children(g)) {
        ASSERT_TRUE(t.parent(c).has_value()) << "n=" << n << " c=" << c;
        EXPECT_EQ(*t.parent(c), g);
        EXPECT_TRUE(t.is_edge(g, c));
        EXPECT_TRUE(t.is_edge(c, g));
      }
      const auto p = t.parent(g);
      if (p) {
        const auto siblings = t.children(*p);
        EXPECT_TRUE(std::count(siblings.begin(), siblings.end(), g));
      } else {
        EXPECT_EQ(g, t.root());
      }
    }
  }
}

TEST(Cbt, EdgesFormTreeOnN) {
  for (std::uint64_t n : {1ULL, 2ULL, 5ULL, 32ULL, 33ULL, 255ULL}) {
    Cbt t(n);
    const auto edges = t.edges();
    EXPECT_EQ(edges.size(), n - 1);
    // Every non-root has exactly one parent edge.
    std::map<GuestId, int> parent_count;
    for (const auto& [p, c] : edges) {
      EXPECT_TRUE(t.is_edge(p, c));
      parent_count[c]++;
    }
    for (GuestId g = 0; g < n; ++g) {
      if (g == t.root()) {
        EXPECT_EQ(parent_count.count(g), 0u);
      } else {
        EXPECT_EQ(parent_count[g], 1);
      }
    }
  }
}

TEST(Cbt, DepthIsLogarithmic) {
  for (std::uint64_t n : {2ULL, 16ULL, 17ULL, 1023ULL, 1024ULL, 1025ULL}) {
    Cbt t(n);
    std::uint32_t max_depth = 0;
    for (GuestId g = 0; g < n; ++g) max_depth = std::max(max_depth, t.depth_of(g));
    EXPECT_EQ(max_depth, t.depth()) << "n=" << n;
    EXPECT_LE(t.depth(), util::ceil_log2(n + 1)) << "n=" << n;
  }
}

TEST(Cbt, IntervalOfIsConsistent) {
  Cbt t(100);
  for (GuestId g = 0; g < 100; ++g) {
    const auto iv = t.interval_of(g);
    EXPECT_EQ(iv.mid(), g);
    EXPECT_TRUE(iv.contains(g));
  }
}

// Reference implementation of crossing edges: scan all tree edges.
std::vector<std::pair<GuestId, GuestId>> crossing_reference(const Cbt& t,
                                                            GuestId rlo,
                                                            GuestId rhi) {
  std::vector<std::pair<GuestId, GuestId>> out;
  for (const auto& [p, c] : t.edges()) {
    const bool p_in = p >= rlo && p < rhi;
    const bool c_in = c >= rlo && c < rhi;
    if (p_in != c_in) out.emplace_back(p, c);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Cbt, CrossingEdgesMatchReferenceSweep) {
  util::Rng rng(11);
  for (std::uint64_t n : {8ULL, 31ULL, 64ULL, 100ULL}) {
    Cbt t(n);
    for (int trial = 0; trial < 40; ++trial) {
      GuestId a = rng.next_below(n), b = rng.next_below(n + 1);
      if (a > b) std::swap(a, b);
      if (a == b) continue;
      auto got = t.crossing_edges(a, b);
      std::vector<std::pair<GuestId, GuestId>> got_pairs;
      for (const auto& e : got) {
        got_pairs.emplace_back(e.parent_pos, e.child_pos);
        // Orientation bookkeeping is right:
        const bool c_in = e.child_pos >= a && e.child_pos < b;
        EXPECT_EQ(c_in, e.child_inside);
        EXPECT_EQ(t.interval_of(e.child_pos), e.child_interval);
      }
      std::sort(got_pairs.begin(), got_pairs.end());
      EXPECT_EQ(got_pairs, crossing_reference(t, a, b))
          << "n=" << n << " range=[" << a << "," << b << ")";
    }
  }
}

TEST(Cbt, CrossingEdgeCountIsLogarithmic) {
  Cbt t(1 << 16);
  util::Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    GuestId a = rng.next_below(1 << 16), b = rng.next_below((1 << 16) + 1);
    if (a > b) std::swap(a, b);
    if (a == b) continue;
    // Crossing edges lie on two root-to-leaf search paths.
    EXPECT_LE(t.crossing_edges(a, b).size(), 2u * (t.depth() + 1));
  }
}

// Reference fragment decomposition: connected components of the induced
// subgraph on range positions.
std::map<GuestId, std::set<GuestId>> fragment_reference(const Cbt& t, GuestId rlo,
                                                        GuestId rhi) {
  // union-find over in-range positions via in-range tree edges
  std::map<GuestId, GuestId> up;
  std::function<GuestId(GuestId)> find = [&](GuestId x) {
    while (up[x] != x) x = up[x] = up[up[x]];
    return x;
  };
  for (GuestId g = rlo; g < rhi; ++g) up[g] = g;
  for (const auto& [p, c] : t.edges()) {
    if (p >= rlo && p < rhi && c >= rlo && c < rhi) up[find(p)] = find(c);
  }
  std::map<GuestId, std::set<GuestId>> comps;
  for (GuestId g = rlo; g < rhi; ++g) comps[find(g)].insert(g);
  return comps;
}

TEST(Cbt, FragmentsPartitionRangeAndMatchComponents) {
  util::Rng rng(17);
  for (std::uint64_t n : {16ULL, 47ULL, 128ULL}) {
    Cbt t(n);
    for (int trial = 0; trial < 30; ++trial) {
      GuestId a = rng.next_below(n), b = rng.next_below(n + 1);
      if (a > b) std::swap(a, b);
      if (a == b) continue;
      const auto frags = t.fragments(a, b);
      const auto ref = fragment_reference(t, a, b);
      ASSERT_EQ(frags.size(), ref.size()) << "n=" << n << " [" << a << "," << b << ")";
      for (const auto& f : frags) {
        // Entry's parent is outside the range (or entry is the root).
        const auto p = t.parent(f.entry);
        if (p) {
          EXPECT_TRUE(*p < a || *p >= b);
          ASSERT_TRUE(f.parent_pos.has_value());
          EXPECT_EQ(*f.parent_pos, *p);
        } else {
          EXPECT_FALSE(f.parent_pos.has_value());
        }
        EXPECT_EQ(f.entry_depth, t.depth_of(f.entry));
        // The component containing entry matches one reference component,
        // and its max relative depth is right.
        bool found = false;
        for (const auto& [root, members] : ref) {
          if (!members.count(f.entry)) continue;
          found = true;
          std::uint32_t max_rel = 0;
          for (GuestId m : members) {
            EXPECT_GE(t.depth_of(m), f.entry_depth);
            max_rel = std::max(max_rel, t.depth_of(m) - f.entry_depth);
          }
          EXPECT_EQ(max_rel, f.max_internal_rel_depth)
              << "n=" << n << " entry=" << f.entry;
          // Out-edges: tree edges from members to out-of-range children.
          std::set<GuestId> expected_out;
          for (GuestId m : members) {
            for (GuestId c : t.children(m)) {
              if (c < a || c >= b) expected_out.insert(c);
            }
          }
          std::set<GuestId> got_out;
          for (const auto& oe : f.out_edges) {
            got_out.insert(oe.child_pos);
            EXPECT_TRUE(members.count(oe.parent_pos));
            EXPECT_EQ(oe.rel_depth, t.depth_of(oe.parent_pos) - f.entry_depth);
          }
          EXPECT_EQ(got_out, expected_out);
        }
        EXPECT_TRUE(found);
      }
      // The fragments carry the crossing-edge geometry the detector checks
      // the host maps against: entries with a parent are the inward edges'
      // children, and the out-edges are the outward edges.
      std::map<GuestId, GuestId> inward, frag_parents;
      std::set<GuestId> outward, frag_out;
      for (const auto& ce : t.crossing_edges(a, b)) {
        if (ce.child_inside) {
          inward[ce.child_pos] = ce.parent_pos;
        } else {
          outward.insert(ce.child_pos);
        }
      }
      for (const auto& f : frags) {
        if (f.parent_pos) frag_parents[f.entry] = *f.parent_pos;
        for (const auto& oe : f.out_edges) frag_out.insert(oe.child_pos);
      }
      EXPECT_EQ(frag_parents, inward) << "n=" << n << " [" << a << "," << b << ")";
      EXPECT_EQ(frag_out, outward) << "n=" << n << " [" << a << "," << b << ")";
    }
  }
}

TEST(Cbt, FullRangeIsSingleFragment) {
  Cbt t(64);
  const auto frags = t.fragments(0, 64);
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_EQ(frags[0].entry, t.root());
  EXPECT_TRUE(frags[0].out_edges.empty());
  EXPECT_EQ(frags[0].max_internal_rel_depth, t.depth());
}

}  // namespace
}  // namespace chs::topology
