#include <gtest/gtest.h>

#include "graph/analysis.hpp"
#include "graph/graph.hpp"
#include "persist/io.hpp"

namespace chs::graph {
namespace {

TEST(Graph, EmptyAndSingleton) {
  Graph e;
  EXPECT_EQ(e.size(), 0u);
  EXPECT_EQ(e.num_edges(), 0u);
  Graph s({7});
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(7));
  EXPECT_FALSE(s.contains(8));
}

TEST(Graph, AddRemoveEdges) {
  Graph g({1, 2, 3});
  EXPECT_TRUE(g.add_edge(1, 2));
  EXPECT_FALSE(g.add_edge(2, 1));  // duplicate, either orientation
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.remove_edge(1, 2));
  EXPECT_FALSE(g.remove_edge(1, 2));
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, NoSelfLoops) {
  Graph g({1, 2});
  EXPECT_FALSE(g.add_edge(1, 1));
  EXPECT_FALSE(g.has_edge(1, 1));
}

TEST(Graph, NeighborsSortedAndDegrees) {
  Graph g({1, 2, 3, 4});
  g.add_edge(3, 1);
  g.add_edge(3, 4);
  g.add_edge(3, 2);
  const auto& n = g.neighbors(3);
  ASSERT_EQ(n.size(), 3u);
  EXPECT_EQ(n[0], 1u);
  EXPECT_EQ(n[1], 2u);
  EXPECT_EQ(n[2], 4u);
  EXPECT_EQ(g.degree(3), 3u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.max_degree(), 3u);
}

TEST(Graph, EdgeListCanonical) {
  Graph g({5, 1, 9});
  g.add_edge(9, 1);
  g.add_edge(5, 9);
  const auto el = g.edge_list();
  ASSERT_EQ(el.size(), 2u);
  EXPECT_EQ(el[0], (std::pair<NodeId, NodeId>{1, 9}));
  EXPECT_EQ(el[1], (std::pair<NodeId, NodeId>{5, 9}));
}

TEST(Graph, SameTopology) {
  Graph a({1, 2, 3}), b({1, 2, 3}), c({1, 2, 4});
  a.add_edge(1, 2);
  b.add_edge(2, 1);
  EXPECT_TRUE(a.same_topology(b));
  b.add_edge(2, 3);
  EXPECT_FALSE(a.same_topology(b));
  EXPECT_FALSE(a.same_topology(c));
}

TEST(Graph, SlotLookupOverSparseIds) {
  Graph g({5, 1, 9});
  EXPECT_EQ(g.index_of(1), 0u);
  EXPECT_EQ(g.index_of(5), 1u);
  EXPECT_EQ(g.index_of(9), 2u);
  for (NodeId id : {1, 5, 9}) {
    EXPECT_TRUE(g.contains(id));
    EXPECT_EQ(g.id_of(g.index_of(id)), id);
  }
  EXPECT_FALSE(g.contains(0));   // below the smallest id
  EXPECT_FALSE(g.contains(3));   // in a gap
  EXPECT_FALSE(g.contains(10));  // one past the largest id
  EXPECT_FALSE(g.contains(~NodeId{0}));
  EXPECT_FALSE(Graph{}.contains(0));
}

TEST(GraphDeathTest, IndexOfAbsentIdFails) {
  Graph g({5, 1, 9});
  EXPECT_DEATH((void)g.index_of(3), "unknown node id");
  EXPECT_DEATH((void)g.index_of(10), "unknown node id");
}

TEST(Graph, PersistRoundTripRebuildsSlots) {
  Graph g({12, 3, 7, 30});
  g.add_edge(3, 30);
  g.add_edge(7, 12);
  g.add_edge(12, 30);
  persist::Writer w(persist::BlobKind::kRaw);
  w.begin_section(persist::tag4("GRPH"));
  w(g);
  w.end_section();
  const auto blob = w.take();

  Graph back;
  persist::Reader r(blob);
  ASSERT_TRUE(r.expect_header(persist::BlobKind::kRaw).ok);
  ASSERT_TRUE(r.open_section(persist::tag4("GRPH")).ok);
  r(back);
  ASSERT_TRUE(r.close_section().ok);
  ASSERT_TRUE(r.ok());

  EXPECT_TRUE(back.same_topology(g));
  EXPECT_EQ(back.num_edges(), g.num_edges());
  for (NodeId id : g.ids()) {
    ASSERT_TRUE(back.contains(id));
    EXPECT_EQ(back.index_of(id), g.index_of(id));
    EXPECT_EQ(back.neighbors(id), g.neighbors(id));
  }
  EXPECT_FALSE(back.contains(4));
  EXPECT_FALSE(back.contains(31));
  EXPECT_TRUE(back.add_edge(3, 7));  // mutations resolve ids through the slots
  EXPECT_TRUE(back.has_edge(7, 3));
}

TEST(Graph, PersistReadRejectsIdsTheSlotTableCannotHold) {
  // Blobs written field by field, as Graph::persist_fields lays them out.
  const auto read = [](const std::vector<NodeId>& ids, std::size_t lists) {
    persist::Writer w(persist::BlobKind::kRaw);
    w.begin_section(persist::tag4("GRPH"));
    w(ids);
    w(std::vector<std::vector<NodeId>>(lists));
    w(std::size_t{0});
    w.end_section();
    const auto blob = w.take();
    Graph g;
    persist::Reader r(blob);
    EXPECT_TRUE(r.expect_header(persist::BlobKind::kRaw).ok);
    EXPECT_TRUE(r.open_section(persist::tag4("GRPH")).ok);
    r(g);
    return r.ok();
  };
  EXPECT_TRUE(read({1, 5, 9}, 3));
  EXPECT_FALSE(read({1, NodeId{1} << 40}, 2));  // would be a 4 TiB table
  EXPECT_FALSE(read({5, 1, 9}, 3));             // unsorted
  EXPECT_FALSE(read({1, 1}, 2));                // duplicate
  EXPECT_FALSE(read({1, 5, 9}, 2));             // an id without adjacency
}

TEST(Analysis, Connectivity) {
  Graph g({0, 1, 2, 3});
  EXPECT_FALSE(is_connected(g));
  EXPECT_EQ(num_components(g), 4u);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_EQ(num_components(g), 2u);
  g.add_edge(1, 2);
  EXPECT_TRUE(is_connected(g));
}

TEST(Analysis, BfsAndDiameter) {
  // Path 0-1-2-3.
  Graph g({0, 1, 2, 3});
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[g.index_of(3)], 3u);
  EXPECT_EQ(eccentricity(g, 1), 2u);
  EXPECT_EQ(diameter(g), 3u);
}

TEST(Analysis, DegreeStats) {
  Graph g({0, 1, 2});
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  const auto s = degree_stats(g);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 2u);
  EXPECT_NEAR(s.mean, 4.0 / 3.0, 1e-12);
}

TEST(Analysis, ReachablePairFraction) {
  Graph g({0, 1, 2, 3});
  g.add_edge(0, 1);
  // Two components of size 2 and 2 isolated nodes? 0-1 connected, 2, 3 alone.
  EXPECT_NEAR(reachable_pair_fraction(g), 2.0 / 12.0, 1e-12);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_NEAR(reachable_pair_fraction(g), 1.0, 1e-12);
}

TEST(Analysis, RemoveNodes) {
  Graph g({0, 1, 2, 3});
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const Graph h = remove_nodes(g, {1});
  EXPECT_EQ(h.size(), 3u);
  EXPECT_FALSE(h.contains(1));
  EXPECT_EQ(h.num_edges(), 1u);
  EXPECT_TRUE(h.has_edge(2, 3));
}

}  // namespace
}  // namespace chs::graph
