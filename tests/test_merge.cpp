// Cluster-merge (interval zip) behaviour: two legal Avatar(Cbt) clusters
// connected by external edges must merge into one legal cluster whose
// responsible ranges are exactly the canonical ranges over the union of
// member ids — the distributed zip must agree with avatar::host_of.
#include <gtest/gtest.h>

#include "avatar/range.hpp"
#include "core/network.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"

namespace chs {
namespace {

using core::Params;
using core::Phase;
using core::StabEngine;
using graph::NodeId;
using stabilizer::MergeStage;

// Build one engine containing two separate legal CBT clusters joined by one
// external edge. Roles are forced deterministic via leader_prob.
std::unique_ptr<StabEngine> two_clusters(std::vector<NodeId> a,
                                         std::vector<NodeId> b,
                                         std::uint64_t n_guests,
                                         std::uint64_t seed) {
  std::vector<NodeId> all;
  all.insert(all.end(), a.begin(), a.end());
  all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end());

  graph::Graph g(all);
  for (const auto& [u, v] : core::scaffold_graph(a, n_guests).edge_list()) {
    g.add_edge(u, v);
  }
  for (const auto& [u, v] : core::scaffold_graph(b, n_guests).edge_list()) {
    g.add_edge(u, v);
  }
  g.add_edge(a[a.size() / 2], b[b.size() / 2]);  // one external edge

  Params p;
  p.n_guests = n_guests;
  auto eng = core::make_engine(std::move(g), p, seed);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  core::install_legal_cbt(*eng, Phase::kCbt, &a);
  core::install_legal_cbt(*eng, Phase::kCbt, &b);
  eng->republish();
  return eng;
}

bool single_cluster_with_canonical_ranges(StabEngine& eng) {
  const auto& ids = eng.graph().ids();
  const std::uint64_t n = eng.protocol().params().n_guests;
  const NodeId root = avatar::host_of(eng.protocol().cbt().root(), ids);
  for (NodeId id : ids) {
    const auto& st = eng.state(id);
    if (st.cluster != root) return false;
    if (st.merge.stage != MergeStage::kNone) return false;
    const auto r = avatar::range_of(id, ids, n);
    if (st.lo != r.lo || st.hi != r.hi) return false;
  }
  return true;
}

TEST(Merge, TwoSingletonsProduceCanonicalRanges) {
  graph::Graph g({5, 11});
  g.add_edge(5, 11);
  Params p;
  p.n_guests = 32;
  auto eng = core::make_engine(std::move(g), p, 2);
  const auto [rounds, ok] = eng->run_until(
      [](StabEngine& e) { return single_cluster_with_canonical_ranges(e); },
      3000);
  EXPECT_TRUE(ok) << rounds;
}

TEST(Merge, TwoClustersMergeToCanonicalRanges) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto eng = two_clusters({2, 9, 17}, {5, 13, 26}, 32, seed);
    const auto [rounds, ok] = eng->run_until(
        [](StabEngine& e) { return single_cluster_with_canonical_ranges(e); },
        5000);
    EXPECT_TRUE(ok) << "seed=" << seed << " rounds=" << rounds;
  }
}

TEST(Merge, InterleavedIdsMergeCorrectly) {
  // Ids strictly alternating between the two clusters: every member's range
  // is interleaved, maximizing zip steps.
  auto eng = two_clusters({0, 8, 16, 24}, {4, 12, 20, 28}, 32, 7);
  const auto [rounds, ok] = eng->run_until(
      [](StabEngine& e) { return single_cluster_with_canonical_ranges(e); },
      5000);
  EXPECT_TRUE(ok) << rounds;
}

TEST(Merge, NestedIdsMergeCorrectly) {
  // One cluster's ids entirely inside a gap of the other.
  auto eng = two_clusters({1, 30}, {10, 12, 14, 16}, 32, 3);
  const auto [rounds, ok] = eng->run_until(
      [](StabEngine& e) { return single_cluster_with_canonical_ranges(e); },
      5000);
  EXPECT_TRUE(ok) << rounds;
}

TEST(Merge, ManySingletonsConvergeAndRangesStayCanonical) {
  // Chain of singletons: every merge in the cascade must produce canonical
  // ranges; the final predicate implies all intermediate merges were sound.
  util::Rng rng(5);
  auto ids = graph::sample_ids(12, 64, rng);
  Params p;
  p.n_guests = 64;
  auto eng = core::make_engine(graph::make_line(ids), p, 9);
  const auto [rounds, ok] = eng->run_until(
      [](StabEngine& e) { return single_cluster_with_canonical_ranges(e); },
      30000);
  EXPECT_TRUE(ok) << rounds;
}

TEST(Merge, MergedClusterHasConsistentStructureMaps) {
  auto eng = two_clusters({3, 7, 19, 27}, {11, 15, 23}, 32, 4);
  const auto [rounds, ok] = eng->run_until(
      [](StabEngine& e) { return single_cluster_with_canonical_ranges(e); },
      5000);
  ASSERT_TRUE(ok) << rounds;
  // Every boundary/parent entry must point at the true host of the position
  // and be an actual graph edge.
  const auto& ids = eng->graph().ids();
  const std::uint64_t n = 32;
  for (NodeId id : ids) {
    const auto& st = eng->state(id);
    for (const auto& [pos, host] : st.boundary_host) {
      EXPECT_EQ(host, avatar::host_of(pos, ids)) << "pos=" << pos;
      EXPECT_TRUE(eng->graph().has_edge(id, host));
    }
    for (const auto& [pos, host] : st.parent_host) {
      const auto pp = eng->protocol().cbt().parent(pos);
      ASSERT_TRUE(pp.has_value());
      EXPECT_EQ(host, avatar::host_of(*pp, ids));
      EXPECT_TRUE(eng->graph().has_edge(id, host));
    }
    const auto r = avatar::range_of(id, ids, n);
    EXPECT_EQ(st.lo, r.lo);
    EXPECT_EQ(st.hi, r.hi);
  }
}

TEST(Merge, NetworkStaysConnectedThroughout) {
  auto eng = two_clusters({2, 9, 17, 29}, {5, 13, 21, 26}, 32, 6);
  for (int r = 0; r < 600; ++r) {
    eng->step_round();
    ASSERT_TRUE(graph::is_connected(eng->graph())) << "round " << r;
  }
}

}  // namespace
}  // namespace chs
