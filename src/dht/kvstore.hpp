// A replicated key-value store running over the stabilized overlay — the
// client application the paper's introduction motivates ("overlay networks
// are used to organize a diverse set of processes for efficient operations
// like searching and routing").
//
// The store is the overlay's one data plane: make_kv_engine snapshots its
// routing tables from a *converged* stabilizer engine, and every put/get
// travels as real messages over the built host network, forwarded by the
// greedy rule of routing/route.hpp. A lookup is the first half of a get
// (`chordsim route` issues gets and reports their round-trip hops).
//
// Placement. A key hashes to a guest position key_to_guest(key); replica j
// of R lives at replica_guest(key, j) = (key_to_guest(key) + j*N/R) mod N,
// i.e. replicas sit at equally spaced independent ring positions (Chord
// successor-lists would put all replicas behind one primary; spaced virtual
// positions keep each replica reachable by an independent greedy route,
// which is what makes failover work without a failure detector on the whole
// path). The host responsible for that guest stores the pair.
//
// Failures. A host can be marked down: it stops processing messages and
// publishes `down` so neighbors stop forwarding to it (one-round-stale
// heartbeat knowledge, the standard assumption). There is no fallback
// route: a host forwards to the live neighbor whose guest precedes the
// target most closely, even when that makes no progress, and the hop cap
// (routing::hop_budget) ends the walk.
// A get whose route dead-ends, runs out of hops or whose primary is down
// simply times out at the client, which retries the next replica position.
//
// Clients. The one client is the open-loop dht::WorkloadDriver
// (workload.hpp), armed by a scenario's `workload` directive; this header
// is the protocol it drives. Host-failure reads are a scenario too
// (examples/scenarios/kv_failover.scn: freeze + fault + workload).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "routing/route.hpp"
#include "sim/engine.hpp"

namespace chs::dht {

using graph::NodeId;
using topology::GuestId;

/// Position of a key on the guest ring (SplitMix64 finalizer of the key).
std::uint64_t key_to_guest(std::uint64_t key, std::uint64_t n_guests);

/// Ring position of replica j in [0, n_replicas).
GuestId replica_guest(std::uint64_t key, std::uint32_t j,
                      std::uint32_t n_replicas, std::uint64_t n_guests);

class KvProtocol {
 public:
  static constexpr NodeId kNoneHost = routing::kNoneHost;
  /// Active-set stepping (DESIGN.md D6): the data plane is purely
  /// message-driven, so only hosts with deliveries due (or freshly injected
  /// client ops, which state_mut wakes) run a step. Idle hosts cost nothing,
  /// which is what lets a 100k-host plane carry 100k in-flight ops.
  static constexpr bool kUsesActiveSet = true;

  struct Message {
    enum class Kind : std::uint8_t { kPut, kGet, kPutAck, kGetReply };
    Kind kind = Kind::kPut;
    std::uint64_t op_id = 0;
    std::uint64_t key = 0;
    std::string value;
    GuestId target = 0;         // ring position this message is routed to
    NodeId origin = kNoneHost;  // client host for requests, server for acks
    // A guest inside the client's responsible range, stamped at issue time;
    // acks/replies are routed here. (Routing them to `origin % n_guests`
    // assumed a host's id lies in its own range, which a retarget breaks.)
    GuestId reply_home = 0;
    std::uint32_t hops = 0;
    bool found = false;
  };

  struct NodeState : routing::RouteTable {
    bool down = false;
    std::map<std::uint64_t, std::string> store;  // replicas this host holds
    std::vector<Message> to_send;                // client ops to fire
    // Client-side completion log: acks and replies that reached this host.
    // Consumers prune on match (take_completion / wholesale drain) so the
    // log stays bounded regardless of op count.
    std::vector<Message> completed;
    std::uint64_t served_puts = 0;  // server-side counters
    std::uint64_t served_gets = 0;
    // Client ops discarded because this host was down when they would have
    // fired (accounted so availability numbers are attributable).
    std::uint64_t dropped_ops = 0;
    // Routed messages swallowed because they arrived at a down host.
    std::uint64_t dropped_msgs = 0;

    /// Remove and return the completion matching (op_id, kind), if present.
    std::optional<Message> take_completion(std::uint64_t op_id,
                                           Message::Kind kind);
    /// Rough heap footprint of the dynamic containers, for leak assertions.
    std::uint64_t live_bytes() const;
  };

  struct PublicState {
    bool down = false;
  };

  using Ctx = sim::NodeCtx<KvProtocol>;

  explicit KvProtocol(std::uint64_t n_guests) : n_guests_(n_guests) {}

  std::uint64_t n_guests() const { return n_guests_; }

  void init_node(NodeId, NodeState&, util::Rng&) {}
  void publish(const NodeState& st, PublicState& pub) { pub.down = st.down; }
  void step(Ctx& ctx);

  /// Active-set contract hook. The data plane has no timers: every action is
  /// caused by a delivery (which wakes the recipient) or an external
  /// injection through state_mut (which wakes the host), so there is never a
  /// spontaneous wakeup to announce.
  void schedule_wakeups(Ctx& ctx) const;

  /// Engine checkpoint hook: the protocol itself carries only immutable
  /// configuration (n_guests_, supplied by the factory on restore).
  template <typename A>
  void persist_fields(A&) {}

 private:
  std::uint64_t n_guests_;
};

using KvEngine = sim::Engine<KvProtocol>;

/// Snapshot a *converged* stabilizer engine into a KV data-plane engine:
/// the same host graph, every host's RouteTable copied from its final
/// stabilizer state (CHS_CHECKs convergence).
/// `max_message_delay` > 1 runs the plane under the §7 bounded-asynchrony
/// model.
std::unique_ptr<KvEngine> make_kv_engine(const core::StabEngine& src,
                                         std::uint64_t seed,
                                         std::uint32_t max_message_delay = 1);

/// Sum of per-host dropped counters (ops cleared on down hosts plus routed
/// messages swallowed by down hosts).
std::uint64_t total_drops(const KvEngine& eng);

}  // namespace chs::dht
