// Deterministic parallel round executor (DESIGN.md D6).
//
// 1. WorkerPool: every shard runs exactly once per dispatch, across
//    repeated dispatches and pool resizes.
// 2. Thread-count determinism: the E1 sweep scenarios, the async-delay
//    goldens, and a send-heavy toy protocol must produce bit-for-bit
//    identical round counts, message counts, and traces at 1, 2, and 8
//    worker threads. Only wall clock may differ.
// 3. Idle fast-forward: round numbering, metrics, and traces match the
//    round-by-round engine exactly while provably empty gap rounds are
//    skipped wholesale.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/churn.hpp"
#include "core/network.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "sim/worker_pool.hpp"
#include "util/log.hpp"

namespace chs {
namespace {

using core::Params;
using core::StabEngine;

// --- WorkerPool ------------------------------------------------------------

TEST(WorkerPool, RunsEveryShardExactlyOnce) {
  sim::WorkerPool pool;
  for (std::size_t threads : {0u, 1u, 3u, 7u}) {
    pool.resize(threads);
    for (std::size_t shards : {1u, 2u, 8u, 33u}) {
      std::vector<std::atomic<int>> hits(shards);
      for (auto& h : hits) h.store(0);
      pool.run(shards, [&](std::size_t s) { hits[s].fetch_add(1); });
      for (std::size_t s = 0; s < shards; ++s) {
        EXPECT_EQ(hits[s].load(), 1) << "threads=" << threads << " shard=" << s;
      }
    }
  }
}

TEST(WorkerPool, BackToBackDispatchesDoNotInterfere) {
  sim::WorkerPool pool;
  pool.resize(4);
  std::atomic<std::uint64_t> sum{0};
  for (int rep = 0; rep < 200; ++rep) {
    pool.run(9, [&](std::size_t s) { sum.fetch_add(s + 1); });
  }
  EXPECT_EQ(sum.load(), 200u * (9u * 10u / 2u));
}

// --- thread-count determinism on the stabilizer ----------------------------

struct RunFingerprint {
  std::uint64_t rounds = 0;
  bool converged = false;
  std::uint64_t messages = 0;
  std::uint64_t resets = 0;
  std::uint64_t edge_adds = 0;
  std::uint64_t edge_dels = 0;
  std::vector<std::size_t> trace;

  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint fingerprint_sweep(graph::Family family, std::uint64_t seed,
                                 std::size_t workers, std::uint32_t max_delay) {
  util::Rng rng(seed);
  auto ids = graph::sample_ids(64, 256, rng);
  Params p;
  p.n_guests = 256;
  p.delay_slack = max_delay;
  auto eng = core::make_engine(graph::make_family(family, ids, rng), p, seed);
  eng->set_worker_threads(workers);
  if (max_delay > 1) eng->set_max_message_delay(max_delay);
  const auto res = core::run_to_convergence(*eng, 400000);
  RunFingerprint fp;
  fp.rounds = res.rounds;
  fp.converged = res.converged;
  fp.messages = eng->metrics().messages();
  fp.resets = res.total_resets;
  fp.edge_adds = eng->metrics().edge_adds();
  fp.edge_dels = eng->metrics().edge_dels();
  fp.trace = eng->metrics().max_degree_trace();
  return fp;
}

TEST(ParallelDeterminism, E1SweepIdenticalAcrossWorkerCounts) {
  util::set_log_level(util::LogLevel::kError);
  for (graph::Family family :
       {graph::Family::kLine, graph::Family::kStar, graph::Family::kRandomTree,
        graph::Family::kConnectedGnp}) {
    const RunFingerprint base = fingerprint_sweep(family, 1, 1, 1);
    ASSERT_TRUE(base.converged) << graph::family_name(family);
    for (std::size_t workers : {2u, 8u}) {
      const RunFingerprint fp = fingerprint_sweep(family, 1, workers, 1);
      EXPECT_EQ(fp, base) << graph::family_name(family)
                          << " workers=" << workers;
    }
  }
}

TEST(ParallelDeterminism, AsyncDelayIdenticalAcrossWorkerCounts) {
  // The message-delay draw is the one RNG consumer outside per-node state;
  // per-sender streams (DESIGN.md D6) make it worker-count independent.
  util::set_log_level(util::LogLevel::kError);
  const RunFingerprint base = fingerprint_sweep(graph::Family::kRandomTree,
                                                2, 1, 3);
  ASSERT_TRUE(base.converged);
  for (std::size_t workers : {2u, 8u}) {
    const RunFingerprint fp =
        fingerprint_sweep(graph::Family::kRandomTree, 2, workers, 3);
    EXPECT_EQ(fp, base) << "workers=" << workers;
  }
}

TEST(ParallelDeterminism, ChurnScheduleIdenticalAcrossWorkerCounts) {
  util::set_log_level(util::LogLevel::kError);
  auto make = [](std::size_t workers) {
    util::Rng rng(11);
    auto ids = graph::sample_ids(64, 256, rng);
    Params p;
    p.n_guests = 256;
    auto eng = core::make_engine(graph::make_random_tree(ids, rng), p, 7);
    eng->set_worker_threads(workers);
    return eng;
  };
  auto base = make(1);
  auto wide = make(8);
  ASSERT_TRUE(core::run_to_convergence(*base, 400000).converged);
  ASSERT_TRUE(core::run_to_convergence(*wide, 400000).converged);
  core::ChurnSchedule sched;
  sched.episodes = 2;
  sched.burst = 2;
  sched.seed = 5;
  const auto rep1 = core::run_churn_schedule(*base, sched);
  const auto rep8 = core::run_churn_schedule(*wide, sched);
  EXPECT_EQ(rep1.all_recovered, rep8.all_recovered);
  EXPECT_EQ(rep1.total_rounds, rep8.total_rounds);
  EXPECT_EQ(rep1.max_recovery_rounds, rep8.max_recovery_rounds);
  EXPECT_EQ(base->metrics().messages(), wide->metrics().messages());
  EXPECT_EQ(base->metrics().max_degree_trace(),
            wide->metrics().max_degree_trace());
}

// --- thread-count determinism on a send-heavy toy protocol ----------------
// Every node messages every neighbor every round and re-arms a wakeup, so
// the step set stays full and the ActionBuffer merge path is saturated.

struct Flooder {
  static constexpr bool kUsesActiveSet = true;
  struct Message {
    std::uint64_t x;
  };
  struct NodeState {
    std::uint64_t sum = 0;
    std::uint64_t steps = 0;
  };
  struct PublicState {
    std::uint64_t sum = 0;
    bool operator==(const PublicState&) const = default;
  };
  std::uint64_t rounds_to_run = 0;
  void init_node(sim::NodeId, NodeState&, util::Rng&) {}
  void publish(const NodeState& st, PublicState& pub) { pub.sum = st.sum; }
  void step(sim::NodeCtx<Flooder>& ctx) {
    auto& st = ctx.state();
    ++st.steps;
    for (const auto& env : ctx.inbox()) st.sum += env.msg.x;
    for (sim::NodeId v : ctx.neighbors()) {
      if (const auto* pub = ctx.view(v)) st.sum += pub->sum & 0xff;
      ctx.send(v, {st.sum ^ v});
    }
    if (ctx.round() + 1 < rounds_to_run) ctx.request_wakeup(1);
  }
};

TEST(ParallelDeterminism, FlooderStatesIdenticalAcrossWorkerCounts) {
  constexpr std::size_t kNodes = 512;
  constexpr std::uint64_t kRounds = 40;
  auto run = [&](std::size_t workers) {
    util::Rng rng(21);
    auto ids = graph::sample_ids(kNodes, 1 << 14, rng);
    auto g = graph::make_random_tree(ids, rng);
    sim::Engine<Flooder> eng(std::move(g), Flooder{kRounds}, 13);
    eng.set_worker_threads(workers);
    for (std::uint64_t r = 0; r < kRounds; ++r) eng.step_round();
    std::vector<std::uint64_t> sums;
    for (sim::NodeId id : eng.graph().ids()) {
      sums.push_back(eng.state(id).sum);
      sums.push_back(eng.state(id).steps);
    }
    sums.push_back(eng.metrics().messages());
    return sums;
  };
  const auto base = run(1);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(8), base);
}

// --- idle fast-forward -----------------------------------------------------

struct SparseTicker {
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
  void step(sim::NodeCtx<SparseTicker>& ctx) {
    ctx.state().stepped_rounds.push_back(ctx.round());
    if (ctx.self() == 0) ctx.request_wakeup(25);  // long idle gaps
  }
};

TEST(IdleFastForward, JumpsGapsWithIdenticalRoundNumbering) {
  auto make = [] {
    graph::Graph g({0, 1});
    g.add_edge(0, 1);
    return sim::Engine<SparseTicker>(std::move(g), SparseTicker{}, 1);
  };
  auto slow = make();
  auto fast = make();
  fast.set_idle_fast_forward(true);

  // 8 activations of node 0: rounds 0, 25, 50, ..., 175.
  for (int r = 0; r < 176; ++r) slow.step_round();
  std::uint64_t fast_calls = 0;
  while (fast.round() < 176) {
    fast.step_round();
    ++fast_calls;
  }
  EXPECT_EQ(fast.round(), 176u);  // gaps land exactly on due rounds
  EXPECT_LT(fast_calls, 20u);     // ~2 calls per activation, not 176
  EXPECT_EQ(fast.state(0).stepped_rounds, slow.state(0).stepped_rounds);
  EXPECT_EQ(fast.state(1).stepped_rounds, slow.state(1).stepped_rounds);
  EXPECT_EQ(fast.metrics().rounds(), slow.metrics().rounds());
  EXPECT_EQ(fast.metrics().max_degree_trace(), slow.metrics().max_degree_trace());
  EXPECT_EQ(fast.quiescent_streak(), slow.quiescent_streak());
  EXPECT_GT(fast.metrics().rounds_fast_forwarded(), 100u);
  EXPECT_EQ(slow.metrics().rounds_fast_forwarded(), 0u);
}

TEST(IdleFastForward, StabilizerConvergenceUnchanged) {
  util::set_log_level(util::LogLevel::kError);
  auto make = [] {
    util::Rng rng(13);
    auto ids = graph::sample_ids(24, 128, rng);
    Params p;
    p.n_guests = 128;
    return core::make_engine(graph::make_random_tree(ids, rng), p, 3);
  };
  auto slow = make();
  auto fast = make();
  fast->set_idle_fast_forward(true);
  const auto res_slow = core::run_to_convergence(*slow, 400000);
  const auto res_fast = core::run_to_convergence(*fast, 400000);
  ASSERT_TRUE(res_slow.converged);
  ASSERT_TRUE(res_fast.converged);
  EXPECT_EQ(res_fast.rounds, res_slow.rounds);
  EXPECT_EQ(res_fast.messages, res_slow.messages);
  EXPECT_EQ(res_fast.total_resets, res_slow.total_resets);
  EXPECT_EQ(fast->metrics().max_degree_trace(),
            slow->metrics().max_degree_trace());
}

TEST(IdleFastForward, FullyQuiescentNetworkStaysCheap) {
  util::set_log_level(util::LogLevel::kError);
  util::Rng rng(13);
  auto ids = graph::sample_ids(24, 128, rng);
  Params p;
  p.n_guests = 128;
  auto eng = core::make_engine(graph::make_random_tree(ids, rng), p, 3);
  eng->set_idle_fast_forward(true);
  ASSERT_TRUE(core::run_to_convergence(*eng, 400000).converged);
  while (eng->pending_events() != 0) eng->step_round();
  // No calendar events at all: each call is one plain (empty) round.
  const std::uint64_t before = eng->round();
  for (int r = 0; r < 10; ++r) eng->step_round();
  EXPECT_EQ(eng->round(), before + 10);
  EXPECT_TRUE(core::is_converged(*eng));
}

}  // namespace
}  // namespace chs
