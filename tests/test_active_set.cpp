// Active-set and dirty-snapshot layer tests.
//
// 1. Determinism regression: for fixed seeds the refactored engine must
//    reproduce the exact convergence rounds / message totals / reset counts
//    the pre-refactor (step-everyone, republish-everyone) engine produced.
//    The golden numbers below were recorded from the seed implementation on
//    the E1 sweep scenarios, a churn schedule, and the E10 async delays.
// 2. StepMode::kAll vs kActiveSet equivalence, round by round.
// 3. Fault-injection paths (inject_edge / inject_edge_removal / state_mut)
//    must re-activate nodes and refresh snapshots in active-set mode.
// 4. NodeCtx::request_wakeup drives spontaneous steps.
#include <gtest/gtest.h>

#include <vector>

#include "campaign/runner.hpp"
#include "core/churn.hpp"
#include "core/network.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "util/log.hpp"

namespace chs {
namespace {

using core::Params;
using core::StabEngine;

struct Golden {
  graph::Family family;
  std::uint64_t n_guests;
  std::uint64_t seed;
  std::uint64_t rounds;
  int converged;
  std::uint64_t messages;
  std::uint64_t resets;
  std::uint64_t peak_max_degree;
};

// Recorded from the seed engine (PR 1); any drift is a semantics change.
// Re-recorded in PR 4 for three deliberate semantics changes, found and
// fixed via the verification subsystem (DESIGN.md D8):
//   * util::Rng::split now avalanches the stream id — the old
//     stream * kGolden scheme parked per-node streams on the generator's
//     own orbit at id-proportional lags, so some node pairs replayed each
//     other's exact draw sequences (identical epoch coins and jitter =>
//     an unbreakable matching livelock; lollipop n=20 N=128 seed=3);
//   * edge hygiene is bilateral: an edge a peer still publishes as
//     structural is never deleted (severing it manufactured the
//     dangling-reference fault I4 forbids);
//   * the detector gained structural/ring reciprocity checks (a reference
//     the peer does not reciprocate is a fault), which is what detects the
//     stale-membership enclaves hygiene used to break up by edge deletion.
// Re-recorded in PR 10 for commit-time deletion-certificate validation
// (DESIGN.md D14): a deferred protocol delete whose me-w-v witness path no
// longer exists in the live graph at apply time is dropped and re-certified
// from fresh views next round, so a handful of runs take 1-2 extra rounds
// (and the junk edge surviving one more round can bump peak degree).
const Golden kGoldens[] = {
    {graph::Family::kLine, 64u, 1u, 1536u, 1, 2276u, 4u, 14u},
    {graph::Family::kLine, 64u, 2u, 1372u, 1, 1739u, 0u, 12u},
    {graph::Family::kLine, 256u, 1u, 2474u, 1, 13140u, 0u, 48u},
    {graph::Family::kLine, 256u, 2u, 2604u, 1, 12991u, 0u, 49u},
    {graph::Family::kStar, 64u, 1u, 1589u, 1, 2194u, 2u, 15u},
    {graph::Family::kStar, 64u, 2u, 1730u, 1, 2191u, 0u, 15u},
    {graph::Family::kStar, 256u, 1u, 3555u, 1, 17030u, 0u, 63u},
    {graph::Family::kStar, 256u, 2u, 2916u, 1, 14999u, 0u, 63u},
    {graph::Family::kRandomTree, 64u, 1u, 1154u, 1, 2206u, 6u, 13u},
    {graph::Family::kRandomTree, 64u, 2u, 1233u, 1, 1845u, 0u, 13u},
    {graph::Family::kRandomTree, 256u, 1u, 2250u, 1, 15349u, 0u, 31u},
    {graph::Family::kRandomTree, 256u, 2u, 2792u, 1, 16371u, 6u, 35u},
    {graph::Family::kConnectedGnp, 64u, 1u, 1073u, 1, 2096u, 0u, 15u},
    {graph::Family::kConnectedGnp, 64u, 2u, 982u, 1, 1790u, 0u, 12u},
    {graph::Family::kConnectedGnp, 256u, 1u, 2472u, 1, 16420u, 2u, 63u},
    {graph::Family::kConnectedGnp, 256u, 2u, 2932u, 1, 16430u, 2u, 39u},
};

TEST(Determinism, SeedEngineGoldensE1Sweep) {
  util::set_log_level(util::LogLevel::kError);
  // Each golden is one cold-start campaign job: the E1 bench runs the same
  // (family, N, seed) points through the same path.
  for (const Golden& g : kGoldens) {
    campaign::Scenario sc;
    sc.n_guests = g.n_guests;
    sc.host_counts = {static_cast<std::size_t>(g.n_guests / 4)};
    sc.families = {g.family};
    sc.seed_lo = sc.seed_hi = g.seed;
    sc.start = campaign::StartMode::kCold;
    const campaign::JobResult r =
        campaign::run_job(sc, campaign::expand_jobs(sc).front());
    EXPECT_EQ(r.rounds, g.rounds)
        << "family=" << static_cast<int>(g.family) << " N=" << g.n_guests
        << " seed=" << g.seed;
    EXPECT_EQ(static_cast<int>(r.converged), g.converged);
    EXPECT_EQ(r.messages, g.messages);
    EXPECT_EQ(r.resets, g.resets);
    EXPECT_EQ(r.peak_degree, g.peak_max_degree);
  }
}

TEST(Determinism, SeedEngineGoldensChurnSchedule) {
  util::set_log_level(util::LogLevel::kError);
  util::Rng rng(11);
  auto ids = graph::sample_ids(16, 64, rng);
  Params p;
  p.n_guests = 64;
  auto eng = core::make_engine(graph::make_random_tree(ids, rng), p, 7);
  const auto r0 = core::run_to_convergence(*eng, 400000);
  EXPECT_TRUE(r0.converged);
  EXPECT_EQ(r0.rounds, 1479u);
  core::ChurnSchedule sched;
  sched.episodes = 3;
  sched.burst = 2;
  sched.seed = 5;
  const auto rep = core::run_churn_schedule(*eng, sched);
  EXPECT_TRUE(rep.all_recovered);
  // Re-recorded in PR 4 with the sweep goldens above (Rng::split fix plus
  // the bilateral-hygiene/reciprocity detector changes), and in PR 10 for
  // commit-time certificate validation.
  EXPECT_EQ(rep.total_rounds, 3798u);
  EXPECT_EQ(rep.max_recovery_rounds, 1676u);
  EXPECT_EQ(eng->metrics().messages(), 8708u);
}

TEST(Determinism, SeedEngineGoldensAsyncDelay) {
  util::set_log_level(util::LogLevel::kError);
  struct AsyncGolden {
    std::uint32_t d;
    std::uint64_t rounds, messages, resets;
  };
  // Re-recorded in PR 2 (per-sender delay streams, DESIGN.md D6), in PR 4
  // with the sweep goldens above, and in PR 10 (certificate validation).
  for (const auto& g : {AsyncGolden{2, 2617u, 2011u, 0u},
                        AsyncGolden{4, 5943u, 2160u, 9u}}) {
    util::Rng rng(41);
    auto ids = graph::sample_ids(16, 64, rng);
    Params p;
    p.n_guests = 64;
    p.delay_slack = g.d;
    auto eng = core::make_engine(graph::make_random_tree(ids, rng), p, 1);
    eng->set_max_message_delay(g.d);
    const auto res = core::run_to_convergence(*eng, 2000000);
    EXPECT_TRUE(res.converged) << "d=" << g.d;
    EXPECT_EQ(res.rounds, g.rounds) << "d=" << g.d;
    EXPECT_EQ(res.messages, g.messages) << "d=" << g.d;
    EXPECT_EQ(res.total_resets, g.resets) << "d=" << g.d;
  }
}

// The goldens above pin rounds, messages, resets and peak degree, but not
// the edge-hygiene counts: junk-edge deletions and the stale-certificate
// drops the engine makes at apply time. These are what the stabilizer's
// neighbor loops (classify_and_clean_edges, the DONE prune) drive, so a
// change to how those loops read views must leave them exactly as they
// were. Counts are cumulative engine metrics after a random-tree cold start
// and again after a 4-host churn burst on the converged network.
struct HygieneCounts {
  std::uint64_t rounds, messages, nodes_stepped, edge_adds, edge_dels,
      stale_cert_drops, total_resets;
  bool operator==(const HygieneCounts&) const = default;
};

void PrintTo(const HygieneCounts& c, std::ostream* os) {
  *os << "{" << c.rounds << ", " << c.messages << ", " << c.nodes_stepped
      << ", " << c.edge_adds << ", " << c.edge_dels << ", "
      << c.stale_cert_drops << ", " << c.total_resets << "}";
}

HygieneCounts hygiene_counts(const StabEngine& eng) {
  const auto& m = eng.metrics();
  return {m.rounds(),    m.messages(),         m.nodes_stepped(),
          m.edge_adds(), m.edge_dels(),        m.stale_cert_drops(),
          core::total_resets(eng)};
}

TEST(Determinism, EdgeHygieneCountsArePinned) {
  util::set_log_level(util::LogLevel::kError);
  struct HygieneGolden {
    std::uint64_t seed;
    HygieneCounts cold, churned;
  };
  // Recorded before the stabilizer's neighbor loops switched to reading
  // views by position (NodeCtx::view_at).
  const HygieneGolden goldens[] = {
      {1u,
       {2633u, 17247u, 63563u, 946u, 522u, 391u, 2u},
       {4979u, 33119u, 136252u, 1679u, 1197u, 1094u, 62u}},
      {2u,
       {3203u, 17897u, 70562u, 850u, 461u, 333u, 4u},
       {5118u, 30818u, 133357u, 1464u, 1030u, 826u, 68u}},
  };
  for (const HygieneGolden& g : goldens) {
    util::Rng rng(g.seed);
    auto ids = graph::sample_ids(64, 256, rng);
    Params p;
    p.n_guests = 256;
    auto eng = core::make_engine(graph::make_random_tree(ids, rng), p, g.seed);
    ASSERT_TRUE(core::run_to_convergence(*eng, 400000).converged);
    EXPECT_EQ(hygiene_counts(*eng), g.cold) << "seed=" << g.seed;
    core::churn_burst(*eng, 4, rng);
    ASSERT_TRUE(core::run_to_convergence(*eng, 400000).converged);
    EXPECT_EQ(hygiene_counts(*eng), g.churned) << "seed=" << g.seed;
  }
}

// --- kAll vs kActiveSet equivalence --------------------------------------

std::unique_ptr<StabEngine> scenario_engine(sim::StepMode mode) {
  util::Rng rng(13);
  auto ids = graph::sample_ids(24, 128, rng);
  Params p;
  p.n_guests = 128;
  auto eng = core::make_engine(graph::make_random_tree(ids, rng), p, 3);
  eng->set_step_mode(mode);
  return eng;
}

TEST(ActiveSet, EquivalentToSteppingAllNodes) {
  util::set_log_level(util::LogLevel::kError);
  auto all = scenario_engine(sim::StepMode::kAll);
  auto act = scenario_engine(sim::StepMode::kActiveSet);

  const auto res_all = core::run_to_convergence(*all, 400000);
  const auto res_act = core::run_to_convergence(*act, 400000);
  ASSERT_TRUE(res_all.converged);
  ASSERT_TRUE(res_act.converged);
  EXPECT_EQ(res_all.rounds, res_act.rounds);
  EXPECT_EQ(res_all.messages, res_act.messages);
  EXPECT_EQ(res_all.total_resets, res_act.total_resets);
  // Round-by-round, not just in aggregate.
  EXPECT_EQ(all->metrics().max_degree_trace(), act->metrics().max_degree_trace());
  EXPECT_EQ(all->metrics().edge_adds(), act->metrics().edge_adds());
  EXPECT_EQ(all->metrics().edge_dels(), act->metrics().edge_dels());
  // And the active set must actually be smaller.
  EXPECT_LT(act->metrics().nodes_stepped(), all->metrics().nodes_stepped());
  // Protocol actions (sends + holds + edge requests) are a property of the
  // trace, not the stepping policy: identical totals, and a real run has
  // some. The telemetry series recorder samples this counter (DESIGN.md
  // D12), so its step-mode independence is part of the determinism story.
  EXPECT_EQ(all->metrics().round_actions(), act->metrics().round_actions());
  EXPECT_GT(act->metrics().round_actions(), 0u);

  // Same equivalence through a seeded churn burst.
  core::ChurnSchedule sched;
  sched.episodes = 2;
  sched.burst = 2;
  sched.seed = 9;
  const auto rep_all = core::run_churn_schedule(*all, sched);
  const auto rep_act = core::run_churn_schedule(*act, sched);
  EXPECT_TRUE(rep_all.all_recovered);
  EXPECT_TRUE(rep_act.all_recovered);
  EXPECT_EQ(rep_all.total_rounds, rep_act.total_rounds);
  EXPECT_EQ(rep_all.max_recovery_rounds, rep_act.max_recovery_rounds);
  EXPECT_EQ(all->metrics().messages(), act->metrics().messages());
  EXPECT_EQ(all->metrics().max_degree_trace(), act->metrics().max_degree_trace());
}

TEST(ActiveSet, QuiescentNetworkStepsAlmostNothing) {
  util::set_log_level(util::LogLevel::kError);
  auto eng = scenario_engine(sim::StepMode::kActiveSet);
  const auto res = core::run_to_convergence(*eng, 400000);
  ASSERT_TRUE(res.converged);
  const std::uint64_t before = eng->metrics().nodes_stepped();
  const std::size_t n = eng->graph().size();
  for (int r = 0; r < 1000; ++r) eng->step_round();
  const std::uint64_t stepped = eng->metrics().nodes_stepped() - before;
  // Stepping everyone would cost n * 1000; the active set pays a residual
  // trickle of stale wakeups at most.
  EXPECT_LT(stepped, n * 1000 / 50);
  EXPECT_TRUE(core::is_converged(*eng));
  EXPECT_GT(eng->quiescent_streak(), 900u);
}

// --- fault-injection re-activation ---------------------------------------

TEST(ActiveSet, InjectedEdgeIsDetectedAndRepaired) {
  util::set_log_level(util::LogLevel::kError);
  // In phase DONE an extra neighbor is "a neighbor it would not have in the
  // correct configuration" — detection requires the endpoints to be stepped,
  // which only happens if injection re-activates them.
  std::vector<std::uint64_t> recovery;
  for (auto mode : {sim::StepMode::kAll, sim::StepMode::kActiveSet}) {
    auto eng = scenario_engine(mode);
    ASSERT_TRUE(core::run_to_convergence(*eng, 400000).converged);
    for (int r = 0; r < 50; ++r) eng->step_round();  // deep quiescence
    const auto& ids = eng->graph().ids();
    graph::NodeId u = ids.front(), v = u;
    for (std::size_t i = ids.size(); i-- > 1;) {
      if (!eng->graph().has_edge(u, ids[i])) {
        v = ids[i];
        break;
      }
    }
    ASSERT_NE(v, u);
    ASSERT_TRUE(eng->inject_edge(u, v));
    const std::uint64_t resets_before = core::total_resets(*eng);
    const auto res = core::run_to_convergence(*eng, 400000);
    EXPECT_TRUE(res.converged);
    EXPECT_GT(core::total_resets(*eng), resets_before);
    recovery.push_back(res.rounds);
  }
  EXPECT_EQ(recovery[0], recovery[1]);  // both modes repair identically
}

TEST(ActiveSet, RemovedEdgeIsDetectedAndRepaired) {
  util::set_log_level(util::LogLevel::kError);
  std::vector<std::uint64_t> recovery;
  for (auto mode : {sim::StepMode::kAll, sim::StepMode::kActiveSet}) {
    auto eng = scenario_engine(mode);
    ASSERT_TRUE(core::run_to_convergence(*eng, 400000).converged);
    for (int r = 0; r < 50; ++r) eng->step_round();
    const auto edges = eng->graph().edge_list();
    ASSERT_FALSE(edges.empty());
    const auto [u, v] = edges[edges.size() / 2];
    ASSERT_TRUE(eng->inject_edge_removal(u, v));
    const auto res = core::run_to_convergence(*eng, 400000);
    EXPECT_TRUE(res.converged);
    recovery.push_back(res.rounds);
  }
  EXPECT_EQ(recovery[0], recovery[1]);
}

// --- toy protocols: dirty publishing and request_wakeup ------------------

struct Counters {
  static constexpr bool kUsesActiveSet = true;
  struct Message {
    int x;
  };
  struct NodeState {
    int value = 0;
    int last_seen = -1;
    std::uint64_t steps = 0;
  };
  struct PublicState {
    int value = 0;
    bool operator==(const PublicState&) const = default;
  };
  void init_node(sim::NodeId, NodeState&, util::Rng&) {}
  void publish(const NodeState& st, PublicState& pub) { pub.value = st.value; }
  void step(sim::NodeCtx<Counters>& ctx) {
    auto& st = ctx.state();
    ++st.steps;
    for (sim::NodeId v : ctx.neighbors()) {
      if (const auto* view = ctx.view(v)) st.last_seen = view->value;
    }
  }
};

TEST(ActiveSet, StateMutPublishesDirtySnapshotToNeighbors) {
  graph::Graph g({0, 1});
  g.add_edge(0, 1);
  sim::Engine<Counters> eng(std::move(g), Counters{}, 1);
  ASSERT_EQ(eng.step_mode(), sim::StepMode::kActiveSet);
  for (int r = 0; r < 5; ++r) eng.step_round();  // settle into quiescence
  const std::uint64_t steps_before = eng.state(1).steps;

  eng.state_mut(0).value = 42;  // no explicit republish
  eng.step_round();  // node 0 steps; its snapshot publishes at round end
  eng.step_round();  // node 1 re-activated by the changed snapshot
  EXPECT_EQ(eng.state(1).last_seen, 42);
  EXPECT_GT(eng.state(1).steps, steps_before);
  // Counters never sends, holds, or touches edges: stepping and dirty
  // publishing alone must not register as protocol actions.
  EXPECT_EQ(eng.metrics().round_actions(), 0u);
}

struct Beeper {
  static constexpr bool kUsesActiveSet = true;
  struct Message {
    int x;
  };
  struct NodeState {
    std::vector<std::uint64_t> stepped_rounds;
  };
  struct PublicState {
    bool operator==(const PublicState&) const = default;
  };
  void init_node(sim::NodeId, NodeState&, util::Rng&) {}
  void publish(const NodeState&, PublicState&) {}
  void step(sim::NodeCtx<Beeper>& ctx) {
    ctx.state().stepped_rounds.push_back(ctx.round());
    if (ctx.self() == 0) ctx.request_wakeup(3);  // self-clocked every 3 rounds
  }
};

TEST(ActiveSet, RequestWakeupDrivesSpontaneousSteps) {
  graph::Graph g({0, 1});
  g.add_edge(0, 1);
  sim::Engine<Beeper> eng(std::move(g), Beeper{}, 1);
  for (int r = 0; r < 10; ++r) eng.step_round();
  // Node 0: initial activation at round 0, then every 3rd round.
  EXPECT_EQ(eng.state(0).stepped_rounds,
            (std::vector<std::uint64_t>{0, 3, 6, 9}));
  // Node 1 never re-arms: stepped once at round 0, silent after.
  EXPECT_EQ(eng.state(1).stepped_rounds, (std::vector<std::uint64_t>{0}));
}

}  // namespace
}  // namespace chs
