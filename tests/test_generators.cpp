#include <gtest/gtest.h>

#include "graph/analysis.hpp"
#include "graph/generators.hpp"

namespace chs::graph {
namespace {

std::vector<NodeId> iota_ids(std::size_t n) {
  std::vector<NodeId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

TEST(Generators, SampleIdsDistinctSortedInRange) {
  util::Rng rng(5);
  const auto ids = sample_ids(100, 1 << 12, rng);
  ASSERT_EQ(ids.size(), 100u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_LT(ids[i], 1u << 12);
    if (i > 0) {
      EXPECT_LT(ids[i - 1], ids[i]);
    }
  }
}

TEST(Generators, SampleIdsDense) {
  util::Rng rng(5);
  const auto ids = sample_ids(16, 16, rng);
  ASSERT_EQ(ids.size(), 16u);
  EXPECT_EQ(ids.front(), 0u);
  EXPECT_EQ(ids.back(), 15u);
}

TEST(Generators, LineShape) {
  const Graph g = make_line(iota_ids(10));
  EXPECT_EQ(g.num_edges(), 9u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(diameter(g), 9u);
}

TEST(Generators, RingShape) {
  const Graph g = make_ring(iota_ids(10));
  EXPECT_EQ(g.num_edges(), 10u);
  const auto s = degree_stats(g);
  EXPECT_EQ(s.min, 2u);
  EXPECT_EQ(s.max, 2u);
}

TEST(Generators, StarShape) {
  const Graph g = make_star(iota_ids(10));
  EXPECT_EQ(g.num_edges(), 9u);
  EXPECT_EQ(g.degree(0), 9u);
  EXPECT_EQ(diameter(g), 2u);
}

TEST(Generators, CliqueShape) {
  const Graph g = make_clique(iota_ids(6));
  EXPECT_EQ(g.num_edges(), 15u);
  EXPECT_EQ(diameter(g), 1u);
}

TEST(Generators, BalancedTreeShape) {
  const Graph g = make_balanced_tree(iota_ids(15));
  EXPECT_EQ(g.num_edges(), 14u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_LE(diameter(g), 6u);
}

TEST(Generators, RandomTreeIsTree) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    util::Rng rng(seed);
    const Graph g = make_random_tree(iota_ids(64), rng);
    EXPECT_EQ(g.num_edges(), 63u);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Generators, ConnectedGnpIsConnected) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    util::Rng rng(seed);
    const Graph g = make_connected_gnp(iota_ids(50), 0.05, rng);
    EXPECT_TRUE(is_connected(g));
    EXPECT_GE(g.num_edges(), 49u);
  }
}

TEST(Generators, LollipopShape) {
  const Graph g = make_lollipop(iota_ids(20), 0.25);
  EXPECT_TRUE(is_connected(g));
  // Clique head of 5 nodes, path tail of 15.
  EXPECT_EQ(g.degree(0), 4u);
  EXPECT_GE(diameter(g), 15u);
}

TEST(Generators, KNeighborRing) {
  const Graph g = make_kneighbor_ring(iota_ids(12), 2);
  EXPECT_TRUE(is_connected(g));
  const auto s = degree_stats(g);
  EXPECT_EQ(s.min, 4u);
  EXPECT_EQ(s.max, 4u);
}

TEST(Generators, AllFamiliesProduceConnectedGraphs) {
  for (const Family f : all_families()) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      util::Rng rng(seed * 101 + 1);
      const Graph g = make_family(f, iota_ids(33), rng);
      EXPECT_TRUE(is_connected(g)) << family_name(f) << " seed " << seed;
      EXPECT_EQ(g.size(), 33u) << family_name(f);
    }
  }
}

TEST(Generators, DeterministicInSeed) {
  util::Rng r1(77), r2(77);
  const Graph a = make_random_tree(iota_ids(40), r1);
  const Graph b = make_random_tree(iota_ids(40), r2);
  EXPECT_TRUE(a.same_topology(b));
}

}  // namespace
}  // namespace chs::graph
