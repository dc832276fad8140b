// The replicated key-value store over the stabilized overlay, tested at
// the protocol level: placement determinism, put/get roundtrips as real
// in-band messages, the replication invariant, routing on every target,
// routing around down hosts, and bounded asynchrony. Client-side failover
// (retrying the next replica) belongs to dht::WorkloadDriver and is tested
// in test_workload.cpp.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>

#include "avatar/range.hpp"
#include "dht/kvstore.hpp"
#include "graph/generators.hpp"

namespace chs::dht {
namespace {

constexpr std::uint64_t kGuests = 256;
constexpr std::size_t kHosts = 48;

// One converged stabilizer run shared by every test in this file (building
// it is the expensive part; the KV snapshot is cheap).
const core::StabEngine& converged_engine() {
  static const auto eng = [] {
    util::Rng rng(404);
    auto ids = graph::sample_ids(kHosts, kGuests, rng);
    core::Params p;
    p.n_guests = kGuests;
    auto e = core::make_engine(core::scaffold_graph(ids, kGuests), p, 6);
    core::install_legal_cbt(*e, core::Phase::kChord);
    const auto res = core::run_to_convergence(*e, 100000);
    CHS_CHECK_MSG(res.converged, "fixture engine failed to converge");
    return e;
  }();
  return *eng;
}

TEST(Placement, KeyToGuestDeterministicAndInRange) {
  for (std::uint64_t key : {0ULL, 1ULL, 42ULL, ~0ULL}) {
    const auto g1 = key_to_guest(key, kGuests);
    const auto g2 = key_to_guest(key, kGuests);
    EXPECT_EQ(g1, g2);
    EXPECT_LT(g1, kGuests);
  }
}

TEST(Placement, KeyToGuestSpreadsAcrossRing) {
  // 1000 sequential keys must not pile into a few buckets.
  std::map<std::uint64_t, int> quarter_counts;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    ++quarter_counts[key_to_guest(key, kGuests) / (kGuests / 4)];
  }
  ASSERT_EQ(quarter_counts.size(), 4u);
  for (const auto& [q, c] : quarter_counts) {
    EXPECT_GT(c, 150) << "quarter " << q;  // fair-ish: expect ~250 each
  }
}

TEST(Placement, ReplicaPositionsAreSpacedAndDistinct) {
  const std::uint32_t r = 4;
  for (std::uint64_t key = 0; key < 64; ++key) {
    std::set<GuestId> positions;
    for (std::uint32_t j = 0; j < r; ++j) {
      const GuestId g = replica_guest(key, j, r, kGuests);
      EXPECT_LT(g, kGuests);
      positions.insert(g);
    }
    EXPECT_EQ(positions.size(), r) << "key " << key;
    // Consecutive positions are exactly N/r apart on the ring.
    EXPECT_EQ((replica_guest(key, 1, r, kGuests) + kGuests -
               replica_guest(key, 0, r, kGuests)) %
                  kGuests,
              kGuests / r);
  }
}

using Message = KvProtocol::Message;
constexpr Message::Kind kPut = Message::Kind::kPut;
constexpr Message::Kind kGet = Message::Kind::kGet;

// One client op, end to end: queue `m` on `client`'s to_send and step the
// plane until its ack or reply reaches the client, or `budget` rounds pass.
// No retry, no client picking, no stats: failover is the driver's job.
std::optional<Message> roundtrip(KvEngine& kv, graph::NodeId client, Message m,
                                 std::uint64_t budget = 64) {
  static std::uint64_t next_op = 1;
  m.op_id = next_op++;
  m.origin = client;
  m.reply_home = kv.state(client).lo;
  const Message::Kind want =
      m.kind == kPut ? Message::Kind::kPutAck : Message::Kind::kGetReply;
  kv.state_mut(client).to_send.push_back(m);
  for (std::uint64_t r = 0; r < budget; ++r) {
    kv.step_round();
    if (auto c = kv.state_mut(client).take_completion(m.op_id, want)) return c;
  }
  return std::nullopt;
}

Message msg(Message::Kind kind, std::uint64_t key, std::uint32_t j,
            std::uint32_t r, std::string value = {}) {
  Message m;
  m.kind = kind;
  m.key = key;
  m.value = std::move(value);
  m.target = replica_guest(key, j, r, kGuests);
  return m;
}

// The value a get returns, or nullopt for a timeout or a not-found reply.
std::optional<std::string> value_of(const std::optional<Message>& reply) {
  if (!reply.has_value() || !reply->found) return std::nullopt;
  return reply->value;
}

// Hosts that can act as clients (a non-empty range to receive replies in)
// and are up.
std::vector<graph::NodeId> live_clients(const KvEngine& kv) {
  std::vector<graph::NodeId> out;
  for (graph::NodeId id : kv.graph().ids()) {
    const auto& st = kv.state(id);
    if (!st.down && st.lo < st.hi) out.push_back(id);
  }
  return out;
}

std::vector<graph::NodeId> holders(const KvEngine& kv, std::uint64_t key) {
  std::vector<graph::NodeId> out;
  for (graph::NodeId id : kv.graph().ids()) {
    if (kv.state(id).store.count(key) != 0) out.push_back(id);
  }
  return out;
}

graph::NodeId replica_host(const KvEngine& kv, std::uint64_t key,
                           std::uint32_t j, std::uint32_t r) {
  return avatar::host_of(replica_guest(key, j, r, kGuests), kv.graph().ids());
}

// Store `value` at every replica position; each put enters at a different
// client. Returns how many replicas acked.
std::uint32_t put_all(KvEngine& kv, std::uint64_t key, std::uint32_t r,
                      const std::string& value, std::uint64_t budget = 64) {
  const auto clients = live_clients(kv);
  std::uint32_t acked = 0;
  for (std::uint32_t j = 0; j < r; ++j) {
    const graph::NodeId c = clients[(key + j) % clients.size()];
    if (roundtrip(kv, c, msg(kPut, key, j, r, value), budget)) ++acked;
  }
  return acked;
}

TEST(KvStore, PutGetRoundtrip) {
  auto kv = make_kv_engine(converged_engine(), 1);
  const auto clients = live_clients(*kv);
  for (std::uint64_t key = 0; key < 50; ++key) {
    EXPECT_EQ(put_all(*kv, key, 1, "value-" + std::to_string(key)), 1u) << key;
  }
  for (std::uint64_t key = 0; key < 50; ++key) {
    const graph::NodeId c = clients[(key * 7) % clients.size()];
    const auto got = value_of(roundtrip(*kv, c, msg(kGet, key, 0, 1)));
    ASSERT_TRUE(got.has_value()) << key;
    EXPECT_EQ(*got, "value-" + std::to_string(key));
  }
}

TEST(KvStore, GetMissingKeyIsNullopt) {
  auto kv = make_kv_engine(converged_engine(), 2);
  const graph::NodeId c = live_clients(*kv).front();
  for (std::uint32_t j = 0; j < 2; ++j) {
    const auto reply = roundtrip(*kv, c, msg(kGet, 999, j, 2));
    ASSERT_TRUE(reply.has_value()) << "replica " << j;  // answered, not lost
    EXPECT_FALSE(value_of(reply).has_value()) << "replica " << j;
  }
}

TEST(KvStore, OverwriteReplacesValue) {
  auto kv = make_kv_engine(converged_engine(), 3);
  ASSERT_EQ(put_all(*kv, 7, 3, "first"), 3u);
  ASSERT_EQ(put_all(*kv, 7, 3, "second"), 3u);
  const graph::NodeId c = live_clients(*kv).front();
  for (std::uint32_t j = 0; j < 3; ++j) {
    EXPECT_EQ(value_of(roundtrip(*kv, c, msg(kGet, 7, j, 3))).value_or(""),
              "second")
        << "replica " << j;
  }
}

TEST(KvStore, ReplicationInvariantHoldsAtResponsibleHosts) {
  const std::uint32_t r = 3;
  auto kv = make_kv_engine(converged_engine(), 4);
  for (std::uint64_t key = 100; key < 120; ++key) {
    ASSERT_EQ(put_all(*kv, key, r, "x"), r);
    // Expected holders: the hosts responsible for the replica positions.
    std::set<graph::NodeId> expected;
    for (std::uint32_t j = 0; j < r; ++j) {
      expected.insert(replica_host(*kv, key, j, r));
    }
    const auto got = holders(*kv, key);
    EXPECT_EQ(std::set<graph::NodeId>(got.begin(), got.end()), expected)
        << "key " << key;
  }
}

TEST(KvStore, HopsAreLogarithmic) {
  auto kv = make_kv_engine(converged_engine(), 5);
  const auto clients = live_clients(*kv);
  std::uint32_t max_hops = 0;
  int hits = 0;
  for (std::uint64_t key = 0; key < 40; ++key) {
    const graph::NodeId c = clients[key % clients.size()];
    const auto ack = roundtrip(*kv, c, msg(kPut, key, 0, 1, "v"));
    ASSERT_TRUE(ack.has_value()) << key;
    max_hops = std::max(max_hops, ack->hops);
  }
  for (std::uint64_t key = 0; key < 40; ++key) {
    const auto reply = roundtrip(*kv, clients[(key + 13) % clients.size()],
                                 msg(kGet, key, 0, 1));
    ASSERT_TRUE(reply.has_value()) << key;
    max_hops = std::max(max_hops, reply->hops);
    if (reply->found) ++hits;
  }
  // There-and-back on a Chord overlay: a generous constant times log2 N.
  EXPECT_LE(max_hops, 4 * (util::ceil_log2(kGuests) + 2));
  EXPECT_EQ(hits, 40);
}

// A converged network of `n_hosts` on `n_guests` for `target`, stabilized
// from the scaffold with a legal CBT installed.
std::unique_ptr<core::StabEngine> stabilized(
    std::uint64_t n_guests, std::size_t n_hosts, std::uint64_t seed,
    topology::TargetSpec target = topology::chord_target()) {
  util::Rng rng(seed);
  auto ids = graph::sample_ids(n_hosts, n_guests, rng);
  core::Params p;
  p.n_guests = n_guests;
  p.target = std::move(target);
  auto eng = core::make_engine(core::scaffold_graph(ids, n_guests), p, seed);
  core::install_legal_cbt(*eng, core::Phase::kChord);
  CHS_CHECK(core::run_to_convergence(*eng, 100000).converged);
  return eng;
}

struct GetStats {
  std::size_t answered = 0;
  std::uint64_t total_hops = 0;  // round-trip: request plus reply
  std::uint32_t max_hops = 0;
  std::uint64_t rounds = 0;
};

// Queue a get for guest `target` on `client`'s to_send; the reply comes
// home to the client's own range.
void queue_get(KvEngine& kv, graph::NodeId client, GuestId target,
               std::uint64_t op_id) {
  Message m;
  m.kind = kGet;
  m.op_id = op_id;
  m.target = target;
  m.origin = client;
  m.reply_home = kv.state(client).lo;
  kv.state_mut(client).to_send.push_back(std::move(m));
}

// `count` gets from random clients to random guests, all queued at once,
// stepped until the plane has been quiescent for three rounds; the answers
// are read from every client's completion log.
GetStats random_gets(KvEngine& kv, std::size_t count, std::uint64_t seed) {
  const auto& ids = kv.graph().ids();
  util::Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const graph::NodeId client = ids[rng.next_below(ids.size())];
    queue_get(kv, client, rng.next_below(kv.protocol().n_guests()), i);
  }
  GetStats stats;
  for (; stats.rounds < 5000 && kv.quiescent_streak() < 3; ++stats.rounds) {
    kv.step_round();
  }
  for (graph::NodeId id : ids) {
    for (const Message& reply : kv.state(id).completed) {
      ++stats.answered;
      stats.total_hops += reply.hops;
      stats.max_hops = std::max(stats.max_hops, reply.hops);
    }
  }
  return stats;
}

TEST(KvStore, RoundTripStatsArePinned) {
  // Exact data-plane numbers on one network: any change to the next-hop
  // rule, its scan order or the snapshot hand-off moves at least one.
  auto src = stabilized(256, 48, 3);
  auto kv = make_kv_engine(*src, 1);
  const GetStats stats = random_gets(*kv, 200, 7);
  EXPECT_EQ(stats.answered, 200u);
  EXPECT_EQ(stats.max_hops, 8u);
  EXPECT_EQ(stats.rounds, 12u);
  EXPECT_EQ(stats.total_hops, 1099u);
}

TEST(KvStore, ExtensionTargetsRouteToo) {
  // The routing tables the waves build (fwd maps per level) exist for every
  // target, so gets are answered on each; only the hop counts differ (fewer
  // long fingers kept means more ring steps).
  for (const auto& [name, target] :
       std::vector<std::pair<const char*, topology::TargetSpec>>{
           {"bichord", topology::bichord_target()},
           {"skiplist", topology::skiplist_target()},
           {"smallworld", topology::smallworld_target(13)},
           {"hypercube", topology::hypercube_target()}}) {
    auto src = stabilized(128, 24, 9, target);
    auto kv = make_kv_engine(*src, 2);
    EXPECT_EQ(random_gets(*kv, 120, 5).answered, 120u) << name;
  }
}

TEST(KvStore, LocalGetsCostZeroHops) {
  // A get for a guest the client itself hosts is served and answered
  // without a message.
  auto src = stabilized(128, 16, 9);
  auto kv = make_kv_engine(*src, 1);
  const auto& ids = kv->graph().ids();
  for (graph::NodeId id : ids) queue_get(*kv, id, kv->state(id).lo, id);
  for (int r = 0; r < 10; ++r) kv->step_round();
  for (graph::NodeId id : ids) {
    const auto& done = kv->state(id).completed;
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].hops, 0u);
  }
  EXPECT_EQ(kv->metrics().messages(), 0u);
}

TEST(KvStore, NextHopNeverOvershoots) {
  // Unit check of the closest-preceding rule on the snapshotted tables: no
  // next hop for a local target, else a current neighbor.
  auto src = stabilized(128, 16, 11);
  auto kv = make_kv_engine(*src, 1);
  const auto& ids = kv->graph().ids();
  util::Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const graph::NodeId h = ids[rng.next_below(ids.size())];
    const auto& st = kv->state(h);
    const GuestId t = rng.next_below(128);
    const auto next =
        routing::next_hop(st, t, 128, [](graph::NodeId) { return true; });
    if (t >= st.lo && t < st.hi) {
      EXPECT_EQ(next, KvProtocol::kNoneHost);
    } else {
      EXPECT_NE(next, KvProtocol::kNoneHost);
      EXPECT_TRUE(kv->graph().has_edge(h, next)) << h << "->" << next;
    }
  }
}

TEST(Failover, GetSurvivesPrimaryFailure) {
  const std::uint32_t r = 3;
  auto kv = make_kv_engine(converged_engine(), 6);
  ASSERT_EQ(put_all(*kv, 55, r, "precious"), r);
  ASSERT_EQ(holders(*kv, 55).size(), r);
  // Kill the primary (holder of replica 0): a get aimed at replica 0 times
  // out, and the same client's get at replica 1 returns the value.
  kv->state_mut(replica_host(*kv, 55, 0, r)).down = true;
  kv->republish();
  const graph::NodeId c = live_clients(*kv).front();
  EXPECT_FALSE(roundtrip(*kv, c, msg(kGet, 55, 0, r)).has_value());
  EXPECT_EQ(value_of(roundtrip(*kv, c, msg(kGet, 55, 1, r))).value_or(""),
            "precious");
}

TEST(Failover, UnreplicatedDataDiesWithItsHost) {
  auto kv = make_kv_engine(converged_engine(), 7);
  ASSERT_EQ(put_all(*kv, 77, 1, "fragile"), 1u);
  const auto h = holders(*kv, 77);
  ASSERT_EQ(h.size(), 1u);
  kv->state_mut(h[0]).down = true;
  kv->republish();
  const graph::NodeId c = live_clients(*kv).front();
  EXPECT_FALSE(value_of(roundtrip(*kv, c, msg(kGet, 77, 0, 1))).has_value());
}

TEST(Failover, WarmRestartRestoresAccess) {
  auto kv = make_kv_engine(converged_engine(), 8);
  ASSERT_EQ(put_all(*kv, 88, 1, "persistent"), 1u);
  const auto h = holders(*kv, 88);
  ASSERT_EQ(h.size(), 1u);
  kv->state_mut(h[0]).down = true;
  kv->republish();
  const graph::NodeId c = live_clients(*kv).front();
  EXPECT_FALSE(value_of(roundtrip(*kv, c, msg(kGet, 88, 0, 1))).has_value());
  kv->state_mut(h[0]).down = false;  // warm restart: the store survived
  kv->republish();
  EXPECT_EQ(value_of(roundtrip(*kv, c, msg(kGet, 88, 0, 1))).value_or(""),
            "persistent");
}

TEST(Failover, RoutesAroundDownIntermediateHosts) {
  const std::uint32_t r = 2;
  auto kv = make_kv_engine(converged_engine(), 9);
  for (std::uint64_t key = 200; key < 230; ++key) {
    ASSERT_EQ(put_all(*kv, key, r, "v" + std::to_string(key)), r);
  }
  // Fail two hosts that hold none of our keys: routes through them must
  // detour via other fingers; every key must stay readable at replica 0.
  std::set<graph::NodeId> holding;
  for (std::uint64_t key = 200; key < 230; ++key) {
    for (auto h : holders(*kv, key)) holding.insert(h);
  }
  int failed = 0;
  for (graph::NodeId h : kv->graph().ids()) {
    if (holding.count(h) == 0 && failed < 2) {
      kv->state_mut(h).down = true;
      ++failed;
    }
  }
  kv->republish();
  ASSERT_EQ(failed, 2);
  const auto clients = live_clients(*kv);
  int ok = 0;
  for (std::uint64_t key = 200; key < 230; ++key) {
    const graph::NodeId c = clients[key % clients.size()];
    if (value_of(roundtrip(*kv, c, msg(kGet, key, 0, r))).value_or("") ==
        "v" + std::to_string(key)) {
      ++ok;
    }
  }
  EXPECT_EQ(ok, 30);
}

TEST(KvRegression, AcksReachClientsOnRetargetedConfiguration) {
  // Route acks by the *stamped* client range, not `origin % n_guests`: the
  // data plane routes purely by range state, so a rebalanced/retargeted
  // overlay may serve ranges that do not contain the server's own id. Under
  // the old rule every ack went to the host whose range covered the client's
  // *id* — a different host after rebalancing — and every op timed out.
  // Rotate the canonical ranges by one ring position (each host serves its
  // predecessor's range; fingers are stale-but-functional, exactly the
  // post-handoff moment) and demand full roundtrips.
  auto kv = make_kv_engine(converged_engine(), 5);
  const auto& ids = kv->graph().ids();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> canonical;
  for (graph::NodeId id : ids) {
    canonical.emplace_back(kv->state(id).lo, kv->state(id).hi);
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto& rg = canonical[(i + ids.size() - 1) % ids.size()];
    auto& st = kv->state_mut(ids[i]);
    st.lo = rg.first;
    st.hi = rg.second;
  }
  // The regression premise must hold: hosts' ids are outside their ranges.
  std::size_t displaced = 0;
  for (graph::NodeId id : ids) {
    const auto& st = kv->state(id);
    if (id < st.lo || id >= st.hi) ++displaced;
  }
  ASSERT_GT(displaced, ids.size() / 2) << "rotation left ids range-anchored";

  // Stale fingers can dead-end a route (here the host whose rotated range
  // wraps the ring loses its own ops), so demand almost every roundtrip, not
  // all of them. Under the old rule every op timed out.
  const auto clients = live_clients(*kv);
  int acked = 0, read = 0;
  for (std::uint64_t key = 0; key < 32; ++key) {
    const std::string value = "v" + std::to_string(key);
    const graph::NodeId c = clients[(key * 5) % clients.size()];
    for (std::uint32_t j = 0; j < 2; ++j) {
      if (roundtrip(*kv, c, msg(kPut, key, j, 2, value))) ++acked;
    }
    if (value_of(roundtrip(*kv, c, msg(kGet, key, 0, 2))) == value) ++read;
  }
  EXPECT_GE(acked, 60) << "of 64 puts";
  EXPECT_GE(read, 30) << "of 32 gets";
  EXPECT_EQ(total_drops(*kv), 0u);
}

TEST(Asynchrony, PutGetRoundtripUnderBoundedDelay) {
  // §7 future work: the data plane under uniform [1, d] message delays.
  // Client budgets stretch by d; correctness is unchanged.
  const std::uint64_t d = 3;
  auto kv = make_kv_engine(converged_engine(), 12, /*max_message_delay=*/d);
  const auto clients = live_clients(*kv);
  for (std::uint64_t key = 300; key < 330; ++key) {
    ASSERT_EQ(put_all(*kv, key, 2, "a" + std::to_string(key), 64 * d), 2u)
        << key;
  }
  for (std::uint64_t key = 300; key < 330; ++key) {
    const graph::NodeId c = clients[(key * 3) % clients.size()];
    EXPECT_EQ(value_of(roundtrip(*kv, c, msg(kGet, key, 0, 2), 64 * d))
                  .value_or(""),
              "a" + std::to_string(key));
  }
}

TEST(Asynchrony, FailoverStillWorksUnderDelay) {
  const std::uint64_t d = 2;
  auto kv = make_kv_engine(converged_engine(), 13, /*max_message_delay=*/d);
  ASSERT_EQ(put_all(*kv, 400, 3, "slow-but-safe", 64 * d), 3u);
  ASSERT_EQ(holders(*kv, 400).size(), 3u);
  kv->state_mut(replica_host(*kv, 400, 0, 3)).down = true;
  kv->republish();
  const graph::NodeId c = live_clients(*kv).front();
  EXPECT_FALSE(roundtrip(*kv, c, msg(kGet, 400, 0, 3), 64 * d).has_value());
  EXPECT_EQ(
      value_of(roundtrip(*kv, c, msg(kGet, 400, 1, 3), 64 * d)).value_or(""),
      "slow-but-safe");
}

}  // namespace
}  // namespace chs::dht
