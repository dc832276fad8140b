#include <gtest/gtest.h>

#include "avatar/embedding.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace chs::avatar {
namespace {

TEST(Embedding, RequiredHostEdgesCollapseSameHost) {
  // Hosts {0, 8} over N = 16: guests 0..7 on host 0, guests 8..15 on host 8.
  const std::vector<NodeId> ids{0, 8};
  const std::vector<std::pair<topology::GuestId, topology::GuestId>> guest_edges{
      {1, 2},   // same host -> no host edge
      {7, 8},   // crosses -> host edge (0, 8)
      {0, 15},  // crosses -> host edge (0, 8), deduplicated
  };
  const auto edges = required_host_edges(guest_edges, ids, 16);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0], (std::pair<NodeId, NodeId>{0, 8}));
}

TEST(Embedding, SingleHostNeedsNoEdges) {
  const std::vector<NodeId> ids{5};
  const auto edges =
      required_host_edges(topology::Cbt(64).edges(), ids, 64);
  EXPECT_TRUE(edges.empty());
}

TEST(Embedding, IdealCbtHostGraphIsConnectedTree_DenseIds) {
  // With n == N hosts, every guest is its own host: the host graph is the
  // CBT itself.
  std::vector<NodeId> ids(16);
  for (std::size_t i = 0; i < 16; ++i) ids[i] = i;
  const auto g = ideal_cbt_host_graph(ids, 16);
  EXPECT_EQ(g.num_edges(), 15u);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_TRUE(is_legal_avatar_cbt(g, 16));
}

TEST(Embedding, IdealHostGraphsConnectedForSparseHosts) {
  util::Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint64_t n_guests = 1 << 8;
    auto ids = graph::sample_ids(20, n_guests, rng);
    const auto cbt_g = ideal_cbt_host_graph(ids, n_guests);
    EXPECT_TRUE(graph::is_connected(cbt_g));
    const auto chord_g =
        ideal_host_graph(topology::chord_target(), ids, n_guests);
    EXPECT_TRUE(graph::is_connected(chord_g));
    // Chord host graph contains the CBT host graph (targets keep scaffold).
    for (const auto& [u, v] : cbt_g.edge_list()) {
      EXPECT_TRUE(chord_g.has_edge(u, v));
    }
  }
}

TEST(Embedding, LegalityIsExact) {
  std::vector<NodeId> ids{1, 5, 9, 13};
  auto g = ideal_host_graph(topology::chord_target(), ids, 16);
  EXPECT_TRUE(is_legal_avatar(g, topology::chord_target(), 16));
  // An extra edge breaks legality.
  graph::Graph extra = g;
  bool added = false;
  for (NodeId u : extra.ids()) {
    for (NodeId v : extra.ids()) {
      if (u < v && !extra.has_edge(u, v)) {
        extra.add_edge(u, v);
        added = true;
        break;
      }
    }
    if (added) break;
  }
  if (added) {
    EXPECT_FALSE(is_legal_avatar(extra, topology::chord_target(), 16));
  }
  // A missing edge breaks legality.
  graph::Graph missing = g;
  const auto el = missing.edge_list();
  ASSERT_FALSE(el.empty());
  missing.remove_edge(el[0].first, el[0].second);
  EXPECT_FALSE(is_legal_avatar(missing, topology::chord_target(), 16));
}

TEST(Embedding, HostDegreeStaysLogarithmicForRandomHosts) {
  // §3.1: the embedding keeps per-host degree near O(log N) in expectation
  // for uniformly placed hosts. Sanity-check the constant is sane.
  util::Rng rng(21);
  const std::uint64_t n_guests = 1 << 12;
  auto ids = graph::sample_ids(256, n_guests, rng);
  const auto g = ideal_host_graph(topology::chord_target(), ids, n_guests);
  const auto stats = graph::degree_stats(g);
  EXPECT_LE(stats.max, 16u * util::ceil_log2(n_guests));
}

}  // namespace
}  // namespace chs::avatar
