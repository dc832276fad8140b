// Engine semantics tests using small purpose-built protocols: message delay,
// neighbor views being one round stale, overlay introduction rules, hold
// queues, metrics, and quiescence detection.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.hpp"
#include "sim/engine.hpp"

namespace chs::sim {
namespace {

// --- Flood protocol: node 0 starts "infected"; infection spreads one hop per
// round. Verifies 1-round message delay and per-node determinism. ---
struct Flood {
  struct Message {
    int hop;
  };
  struct NodeState {
    bool infected = false;
    std::uint64_t infected_round = 0;
    bool announced = false;
  };
  struct PublicState {};

  void init_node(NodeId id, NodeState& st, util::Rng&) {
    st.infected = (id == 0);
  }
  void publish(const NodeState&, PublicState&) {}
  void step(NodeCtx<Flood>& ctx) {
    auto& st = ctx.state();
    for (const auto& env : ctx.inbox()) {
      if (!st.infected) {
        st.infected = true;
        st.infected_round = ctx.round();
      }
      (void)env;
    }
    if (st.infected && !st.announced) {
      st.announced = true;
      for (NodeId v : ctx.neighbors()) ctx.send(v, Message{0});
    }
  }
};

TEST(Engine, FloodTakesExactlyDiameterRounds) {
  // Line of 6 nodes: farthest node infected in round 5 (messages sent in
  // round r are received in round r+1).
  Engine<Flood> eng(graph::make_line({0, 1, 2, 3, 4, 5}), Flood{}, 1);
  for (int r = 0; r < 10; ++r) eng.step_round();
  EXPECT_TRUE(eng.state(5).infected);
  EXPECT_EQ(eng.state(5).infected_round, 5u);
  EXPECT_EQ(eng.state(1).infected_round, 1u);
}

// --- View protocol: each node mirrors the counter its neighbor published.
// Verifies views are exactly one round stale. ---
struct Viewer {
  struct Message {};
  struct NodeState {
    int counter = 0;
    int seen_from_peer = -1;
  };
  struct PublicState {
    int counter = 0;
  };
  void init_node(NodeId, NodeState&, util::Rng&) {}
  void publish(const NodeState& st, PublicState& pub) { pub.counter = st.counter; }
  void step(NodeCtx<Viewer>& ctx) {
    auto& st = ctx.state();
    for (NodeId v : ctx.neighbors()) {
      const auto* view = ctx.view(v);
      ASSERT_NE(view, nullptr);
      st.seen_from_peer = view->counter;
    }
    st.counter = static_cast<int>(ctx.round()) + 1;  // value after round r
  }
};

TEST(Engine, NeighborViewsAreOneRoundStale) {
  Engine<Viewer> eng(graph::make_line({0, 1}), Viewer{}, 1);
  eng.step_round();  // round 0: views show initial state (0)
  EXPECT_EQ(eng.state(0).seen_from_peer, 0);
  eng.step_round();  // round 1: views show state published after round 0 (= 1)
  EXPECT_EQ(eng.state(0).seen_from_peer, 1);
  eng.step_round();
  EXPECT_EQ(eng.state(1).seen_from_peer, 2);
}

// --- PositionalViewer: view_at(k) is view(neighbors()[k]) on every step,
// while the edge churn below keeps reshaping each neighbor list. Even
// rounds close a triangle over the first and last neighbor; odd rounds have
// even-id nodes of degree > 3 drop their last neighbor. ---
struct PositionalViewer {
  struct Message {};
  struct NodeState {
    NodeId id = 0;
    std::uint64_t views_checked = 0;
  };
  struct PublicState {
    NodeId id = 0;
  };
  void init_node(NodeId id, NodeState& st, util::Rng&) { st.id = id; }
  void publish(const NodeState& st, PublicState& pub) { pub.id = st.id; }
  void step(NodeCtx<PositionalViewer>& ctx) {
    const auto& nbrs = ctx.neighbors();
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const auto* at = ctx.view_at(k);
      ASSERT_EQ(at, ctx.view(nbrs[k]));
      ASSERT_EQ(at->id, nbrs[k]);
      ++ctx.state().views_checked;
    }
    if (nbrs.size() < 2) return;
    if (ctx.round() % 2 == 0) {
      ctx.introduce(nbrs.front(), nbrs.back());
    } else if (ctx.self() % 2 == 0 && nbrs.size() > 3) {
      ctx.disconnect(nbrs.back());
    }
  }
};

TEST(Engine, ViewAtMatchesViewOfEveryNeighbor) {
  util::Rng rng(5);
  std::vector<NodeId> ids(24);
  for (NodeId i = 0; i < ids.size(); ++i) ids[i] = i;
  Engine<PositionalViewer> eng(graph::make_random_tree(ids, rng),
                               PositionalViewer{}, 1);
  std::uint64_t degree_sum = 0;
  for (int r = 0; r < 12; ++r) {
    degree_sum += 2 * eng.graph().num_edges();
    eng.step_round();
  }
  std::uint64_t checked = 0;
  for (NodeId id : ids) checked += eng.state(id).views_checked;
  // Every step read every neighbor by position, and the lists changed.
  EXPECT_EQ(checked, degree_sum);
  EXPECT_GT(eng.metrics().edge_adds(), 0u);
  EXPECT_GT(eng.metrics().edge_dels(), 0u);
}

// --- Introducer: the hub of a star introduces its neighbors pairwise in
// round 0; leaf nodes then message their new neighbors. ---
struct Introducer {
  struct Message {
    NodeId about;
  };
  struct NodeState {
    std::vector<NodeId> got_from;
  };
  struct PublicState {};
  void init_node(NodeId, NodeState&, util::Rng&) {}
  void publish(const NodeState&, PublicState&) {}
  void step(NodeCtx<Introducer>& ctx) {
    if (ctx.round() == 0 && ctx.self() == 0) {
      const auto& nbrs = ctx.neighbors();
      for (std::size_t i = 0; i + 1 < nbrs.size(); ++i) {
        ctx.introduce(nbrs[i], nbrs[i + 1]);
      }
    }
    if (ctx.round() == 1 && ctx.self() != 0) {
      // New lateral edges exist now.
      for (NodeId v : ctx.neighbors()) {
        if (v != 0) ctx.send(v, Message{ctx.self()});
      }
    }
    for (const auto& env : ctx.inbox()) ctx.state().got_from.push_back(env.from);
  }
};

TEST(Engine, IntroduceCreatesUsableEdgesNextRound) {
  Engine<Introducer> eng(graph::make_star({0, 1, 2, 3}), Introducer{}, 1);
  eng.step_round();  // round 0: hub introduces 1-2, 2-3
  EXPECT_TRUE(eng.graph().has_edge(1, 2));
  EXPECT_TRUE(eng.graph().has_edge(2, 3));
  EXPECT_FALSE(eng.graph().has_edge(1, 3));
  eng.step_round();  // round 1: leaves send over lateral edges
  eng.step_round();  // round 2: delivery
  const auto& got = eng.state(2).got_from;
  EXPECT_EQ(got.size(), 2u);
  EXPECT_TRUE(std::count(got.begin(), got.end(), 1));
  EXPECT_TRUE(std::count(got.begin(), got.end(), 3));
}

// --- Disconnector: node deletes an incident edge. ---
struct Disconnector {
  struct Message {};
  struct NodeState {};
  struct PublicState {};
  void init_node(NodeId, NodeState&, util::Rng&) {}
  void publish(const NodeState&, PublicState&) {}
  void step(NodeCtx<Disconnector>& ctx) {
    if (ctx.round() == 0 && ctx.self() == 1) ctx.disconnect(0);
  }
};

TEST(Engine, DisconnectRemovesEdgeAfterRound) {
  Engine<Disconnector> eng(graph::make_line({0, 1, 2}), Disconnector{}, 1);
  EXPECT_TRUE(eng.graph().has_edge(0, 1));
  eng.step_round();
  EXPECT_FALSE(eng.graph().has_edge(0, 1));
  EXPECT_TRUE(eng.graph().has_edge(1, 2));
  EXPECT_EQ(eng.metrics().edge_dels(), 1u);
}

// --- Holder: self-delivery after a delay. ---
struct Holder {
  struct Message {
    int tag;
  };
  struct NodeState {
    std::uint64_t fired_round = 0;
  };
  struct PublicState {};
  void init_node(NodeId, NodeState&, util::Rng&) {}
  void publish(const NodeState&, PublicState&) {}
  void step(NodeCtx<Holder>& ctx) {
    if (ctx.round() == 0 && ctx.self() == 0) ctx.hold(Message{7}, 5);
    for (const auto& env : ctx.inbox()) {
      if (env.msg.tag == 7) ctx.state().fired_round = ctx.round();
    }
  }
};

TEST(Engine, HoldDeliversAfterExactDelay) {
  Engine<Holder> eng(graph::make_line({0, 1}), Holder{}, 1);
  for (int r = 0; r < 8; ++r) eng.step_round();
  EXPECT_EQ(eng.state(0).fired_round, 5u);
}

// --- Quiescence: Flood goes silent after the wave passes. ---
TEST(Engine, QuiescenceDetected) {
  Engine<Flood> eng(graph::make_line({0, 1, 2, 3}), Flood{}, 1);
  std::uint64_t rounds = 0;
  while (eng.quiescent_streak() < 3 && rounds < 50) {
    eng.step_round();
    ++rounds;
  }
  EXPECT_LT(rounds, 50u);
  EXPECT_TRUE(eng.state(3).infected);
}

TEST(Engine, RunUntilStopsOnPredicate) {
  Engine<Flood> eng(graph::make_line({0, 1, 2, 3, 4}), Flood{}, 1);
  const auto [rounds, ok] = eng.run_until(
      [](Engine<Flood>& e) { return e.state(4).infected; }, 100);
  EXPECT_TRUE(ok);
  EXPECT_EQ(rounds, 5u);  // predicate checked before each round
}

TEST(Engine, MetricsCountMessagesAndDegrees) {
  Engine<Flood> eng(graph::make_star({0, 1, 2, 3, 4}), Flood{}, 1);
  for (int r = 0; r < 5; ++r) eng.step_round();
  // Hub sends 4, each leaf sends 1 back (to the hub).
  EXPECT_EQ(eng.metrics().messages(), 8u);
  EXPECT_EQ(eng.metrics().initial_max_degree(), 4u);
  EXPECT_EQ(eng.metrics().peak_max_degree(), 4u);
  EXPECT_NEAR(eng.metrics().degree_expansion(eng.graph()), 1.0, 1e-12);
}

TEST(Engine, InjectEdgeBypassesRules) {
  Engine<Flood> eng(graph::make_line({0, 1, 2}), Flood{}, 1);
  EXPECT_TRUE(eng.inject_edge(0, 2));
  EXPECT_TRUE(eng.graph().has_edge(0, 2));
  EXPECT_TRUE(eng.inject_edge_removal(0, 2));
  EXPECT_FALSE(eng.graph().has_edge(0, 2));
}

}  // namespace
}  // namespace chs::sim
