// Deterministic parallel round executor (DESIGN.md D6).
//
// 1. WorkerPool: every shard runs exactly once per dispatch, across
//    repeated dispatches and pool resizes.
// 2. Thread-count determinism: the E1 sweep scenarios, the async-delay
//    goldens, and a send-heavy toy protocol must produce bit-for-bit
//    identical round counts, message counts, and traces at 1, 2, and 8
//    worker threads. Only wall clock may differ.
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

}  // namespace
}  // namespace chs
