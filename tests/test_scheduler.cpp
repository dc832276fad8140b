// Calendar-queue and mailbox layer tests: FIFO ordering per due round,
// ring wraparound and lap filtering, growth redistribution, and the
// single-clear-point inbox arenas — plus engine-level delivery ordering
// under set_max_message_delay.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/scheduler.hpp"

namespace chs::sim {
namespace {

TEST(CalendarQueue, FifoWithinDueRound) {
  CalendarQueue<int> q;
  q.schedule(3, 1);
  q.schedule(5, 99);
  q.schedule(3, 2);
  q.schedule(3, 3);
  EXPECT_EQ(q.size(), 4u);

  std::vector<int> got;
  for (std::uint64_t r = 0; r <= 5; ++r) {
    q.drain_due(r, [&](int v) { got.push_back(v); });
  }
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 99}));
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, EmptyRoundsAreCheap) {
  CalendarQueue<int> q;
  q.schedule(100, 7);
  int count = 0;
  for (std::uint64_t r = 0; r < 100; ++r) {
    q.drain_due(r, [&](int) { ++count; });
  }
  EXPECT_EQ(count, 0);
  q.drain_due(100, [&](int v) { EXPECT_EQ(v, 7); ++count; });
  EXPECT_EQ(count, 1);
}

TEST(CalendarQueue, GrowthPreservesOrder) {
  // min 2 buckets; schedule far beyond the initial ring so it must grow.
  CalendarQueue<int> q(2, 1024);
  for (int i = 0; i < 50; ++i) {
    q.schedule(static_cast<std::uint64_t>(10 + i % 7), i);
  }
  q.schedule(500, 1000);  // forces growth well past the initial 2 buckets
  EXPECT_GE(q.bucket_count(), 512u);

  std::vector<int> at_12;
  for (std::uint64_t r = 0; r <= 500; ++r) {
    q.drain_due(r, [&](int v) {
      if (r == 12) at_12.push_back(v);
    });
  }
  // Due-round 12 received i = 2, 9, 16, ... in scheduling order.
  EXPECT_EQ(at_12, (std::vector<int>{2, 9, 16, 23, 30, 37, 44}));
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, LapFilteringBeyondMaxBuckets) {
  // Cap the ring at 4 buckets: events further out than 4 rounds share
  // buckets across laps and must still come out exactly on their due round.
  CalendarQueue<std::uint64_t> q(2, 4);
  EXPECT_LE(q.bucket_count(), 4u);
  // Several events per slot, multiple laps apart.
  for (std::uint64_t due : {2ull, 6ull, 10ull, 3ull, 7ull, 102ull}) {
    q.schedule(due, due);
  }
  std::vector<std::uint64_t> got;
  for (std::uint64_t r = 0; r <= 102; ++r) {
    q.drain_due(r, [&](std::uint64_t v) {
      EXPECT_EQ(v, r);  // delivered exactly on its due round, never a lap early
      got.push_back(v);
    });
  }
  EXPECT_EQ(got, (std::vector<std::uint64_t>{2, 3, 6, 7, 10, 102}));
  EXPECT_EQ(q.peak_bucket_occupancy(), 4u);  // 2, 6, 10, 102 share a bucket
}

TEST(CalendarQueue, LapSharingPinsSchedulingOrderWithinASharedBucket) {
  // Beyond the bucket-ring cap, events from different laps *and* events of
  // the same due round interleave in one bucket. The determinism contract
  // (DESIGN.md D5) is FIFO per due round in scheduling order, regardless of
  // how many laps apart the entries were scheduled — pin it directly.
  CalendarQueue<int> q(2, 4);
  ASSERT_LE(q.bucket_count(), 4u);
  // Bucket (due & 3) == 2 receives due rounds 2, 6, 10, 14: schedule their
  // events interleaved so bucket order != due order != scheduling order of
  // any single round.
  q.schedule(6, 60);
  q.schedule(2, 20);
  q.schedule(10, 100);
  q.schedule(6, 61);
  q.schedule(2, 21);
  q.schedule(14, 140);
  q.schedule(6, 62);
  std::vector<std::pair<std::uint64_t, int>> got;
  for (std::uint64_t r = 0; r <= 14; ++r) {
    q.drain_due(r, [&](int v) { got.emplace_back(r, v); });
  }
  const std::vector<std::pair<std::uint64_t, int>> want = {
      {2, 20}, {2, 21}, {6, 60}, {6, 61}, {6, 62}, {10, 100}, {14, 140}};
  EXPECT_EQ(got, want);
  EXPECT_TRUE(q.empty());
}

TEST(Mailbox, DeliverInspectClear) {
  MailboxPool<int> mail;
  mail.init(3);
  mail.begin_round();
  mail.deliver(1, Envelope<int>{7, 10});
  mail.deliver(1, Envelope<int>{8, 11});
  mail.deliver(2, Envelope<int>{7, 12});
  EXPECT_EQ(mail.delivered_this_round(), 3u);
  EXPECT_FALSE(mail.has_mail(0));
  ASSERT_EQ(mail.inbox(1).size(), 2u);
  EXPECT_EQ(mail.inbox(1)[0].from, 7u);
  EXPECT_EQ(mail.inbox(1)[0].msg, 10);
  EXPECT_EQ(mail.inbox(1)[1].msg, 11);
  mail.end_round();
  EXPECT_TRUE(mail.inbox(1).empty());
  EXPECT_TRUE(mail.inbox(2).empty());
  mail.begin_round();
  EXPECT_EQ(mail.delivered_this_round(), 0u);
  mail.deliver(1, Envelope<int>{9, 13});
  ASSERT_EQ(mail.inbox(1).size(), 1u);  // old contents gone, arena reused
  EXPECT_EQ(mail.inbox(1)[0].msg, 13);
}

// --- Engine-level: hold/send ordering and delayed delivery --------------

// Each node records every delivery as "round:from:payload". Node 0 seeds
// the run: sends to all neighbors with distinct payloads, plus holds.
struct Recorder {
  struct Message {
    int tag;
  };
  struct NodeState {
    std::vector<std::string> log;
    bool seeded = false;
  };
  struct PublicState {
    bool operator==(const PublicState&) const = default;
  };

  void init_node(NodeId, NodeState&, util::Rng&) {}
  void publish(const NodeState&, PublicState&) {}
  void step(NodeCtx<Recorder>& ctx) {
    auto& st = ctx.state();
    for (const auto& env : ctx.inbox()) {
      st.log.push_back(std::to_string(ctx.round()) + ":" +
                       std::to_string(env.from) + ":" +
                       std::to_string(env.msg.tag));
    }
    if (ctx.self() == 0 && !st.seeded) {
      st.seeded = true;
      ctx.hold(Message{100}, 1);
      ctx.hold(Message{101}, 1);
      ctx.hold(Message{102}, 3);
      for (NodeId v : ctx.neighbors()) {
        ctx.send(v, Message{static_cast<int>(v)});
      }
      ctx.send(0, Message{50});  // self-send, also next round
    }
  }
};

TEST(EngineScheduler, HoldsDeliverBeforeSendsInOrder) {
  graph::Graph g({0, 1, 2});
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  Engine<Recorder> eng(std::move(g), Recorder{}, 1);
  for (int r = 0; r < 5; ++r) eng.step_round();
  // Node 0 at round 1: holds 100, 101 first (scheduling order), then the
  // self-send 50; the delay-3 hold lands alone at round 3.
  EXPECT_EQ(eng.state(0).log,
            (std::vector<std::string>{"1:0:100", "1:0:101", "1:0:50", "3:0:102"}));
  EXPECT_EQ(eng.state(1).log, (std::vector<std::string>{"1:0:1"}));
  EXPECT_EQ(eng.state(2).log, (std::vector<std::string>{"1:0:2"}));
}

// With max_message_delay = d every send lands within [1, d] rounds and
// same-recipient same-round deliveries keep their send order.
struct Burst {
  struct Message {
    int seq;
  };
  struct NodeState {
    std::vector<std::pair<std::uint64_t, int>> got;  // (round, seq)
  };
  struct PublicState {
    bool operator==(const PublicState&) const = default;
  };
  void init_node(NodeId, NodeState&, util::Rng&) {}
  void publish(const NodeState&, PublicState&) {}
  void step(NodeCtx<Burst>& ctx) {
    auto& st = ctx.state();
    for (const auto& env : ctx.inbox()) st.got.emplace_back(ctx.round(), env.msg.seq);
    if (ctx.self() == 0 && ctx.round() == 0) {
      for (int i = 0; i < 64; ++i) ctx.send(1, Message{i});
    }
  }
};

TEST(EngineScheduler, BoundedDelayDeliversAllWithinWindowInFifoOrder) {
  constexpr std::uint32_t kDelay = 5;
  graph::Graph g({0, 1});
  g.add_edge(0, 1);
  Engine<Burst> eng(std::move(g), Burst{}, 42);
  eng.set_max_message_delay(kDelay);
  for (int r = 0; r < 8; ++r) eng.step_round();
  const auto& got = eng.state(1).got;
  ASSERT_EQ(got.size(), 64u);
  std::uint64_t min_r = ~0ull, max_r = 0;
  std::vector<int> prev_seq_per_round(kDelay + 2, -1);
  for (const auto& [r, seq] : got) {
    min_r = std::min(min_r, r);
    max_r = std::max(max_r, r);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, static_cast<std::uint64_t>(kDelay));
    // FIFO within a delivery round: seq strictly increases.
    EXPECT_GT(seq, prev_seq_per_round[r]);
    prev_seq_per_round[r] = seq;
  }
  EXPECT_GT(max_r, min_r);  // delays actually spread across rounds
}

// In round 0 node 0 deletes (0, 1) outright, then deletes (0, 2) on the
// certificate path 0-1-2 — which the first delete of the same batch has
// just severed, so the commit-time check (D14) drops it.
struct Dropper {
  struct Message {
    int x;
  };
  struct NodeState {};
  struct PublicState {
    bool operator==(const PublicState&) const = default;
  };
  void init_node(NodeId, NodeState&, util::Rng&) {}
  void publish(const NodeState&, PublicState&) {}
  void step(NodeCtx<Dropper>& ctx) {
    if (ctx.self() != 0 || ctx.round() != 0) return;
    ctx.disconnect(1, "drop-site");
    ctx.disconnect(2, "stale-site", /*witness=*/1);
  }
};

TEST(EngineScheduler, RoundObserverSeesEachCommittedDeleteWithItsSite) {
  graph::Graph g({0, 1, 2, 3});
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  Engine<Dropper> eng(std::move(g), Dropper{}, 1);
  struct Seen {
    std::uint64_t round;
    NodeId u, v;
    std::string site;
  };
  std::vector<Seen> seen;
  eng.set_round_observer([&](std::uint64_t round, std::span<const NodeIndex>,
                             std::span<const EdgeDelta> deltas) {
    for (const EdgeDelta& d : deltas) {
      ASSERT_TRUE(d.removed);
      ASSERT_NE(d.site, nullptr);
      seen.push_back({round, d.u, d.v, d.site});
    }
  });
  eng.step_round();
  EXPECT_TRUE(eng.graph().has_edge(0, 2));  // the stale delete was dropped
  EXPECT_EQ(eng.metrics().stale_cert_drops(), 1u);
  eng.inject_edge_removal(2, 3);
  eng.step_round();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].round, 0u);
  EXPECT_EQ(std::minmax(seen[0].u, seen[0].v), std::minmax<NodeId>(0, 1));
  EXPECT_EQ(seen[0].site, "drop-site");
  EXPECT_EQ(seen[1].round, 1u);
  EXPECT_EQ(std::minmax(seen[1].u, seen[1].v), std::minmax<NodeId>(2, 3));
  EXPECT_EQ(seen[1].site, "external");
}

TEST(EngineScheduler, RoundActionsCountsSendsAndHoldsNotDeliveries) {
  // RunMetrics::round_actions is the cumulative sends + holds + edge
  // requests — the activity counter the telemetry series recorder samples
  // (DESIGN.md D12). Node 0's seeding round performs exactly 3 holds, 2
  // neighbor sends, and 1 self-send; everything after is pure delivery.
  graph::Graph g({0, 1, 2});
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  Engine<Recorder> eng(std::move(g), Recorder{}, 1);
  EXPECT_EQ(eng.metrics().round_actions(), 0u);
  eng.step_round();
  EXPECT_EQ(eng.metrics().round_actions(), 6u);
  for (int r = 0; r < 4; ++r) eng.step_round();
  // Deliveries alone are not actions: the counter holds still while the
  // seeded messages drain.
  EXPECT_EQ(eng.metrics().round_actions(), 6u);
}

TEST(EngineScheduler, QuiescenceAccountsForPendingHoldsAndDelays) {
  graph::Graph g({0, 1});
  g.add_edge(0, 1);
  Engine<Recorder> eng(std::move(g), Recorder{}, 1);
  eng.step_round();  // node 0 seeds holds (due rounds 1 and 3) and sends
  EXPECT_EQ(eng.quiescent_streak(), 0u);
  eng.step_round();  // round 1: deliveries
  eng.step_round();  // round 2: nothing due, but the delay-3 hold is pending
  EXPECT_EQ(eng.quiescent_streak(), 0u);
  eng.step_round();  // round 3: final hold delivered
  eng.step_round();  // round 4: silent, nothing pending
  eng.step_round();
  EXPECT_EQ(eng.quiescent_streak(), 2u);
  EXPECT_EQ(eng.pending_events(), 0u);
}

}  // namespace
}  // namespace chs::sim
