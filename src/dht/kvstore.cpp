#include "dht/kvstore.hpp"

#include <algorithm>

#include "stabilizer/state.hpp"
#include "util/bitops.hpp"
#include "util/check.hpp"

namespace chs::dht {
namespace {

std::uint64_t cw(GuestId from, GuestId to, std::uint64_t n) {
  return (to + n - from) % n;
}

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Hard per-message hop cap: routes that lost greedy progress (detours
// around down hosts, below) circulate at most this long before the drop is
// surfaced to the client as a timeout.
std::uint32_t hop_cap(std::uint64_t n_guests) {
  return 4 * (util::ceil_log2(n_guests) + 2);
}

// Down-aware closest-preceding-finger (same geometry as
// routing::LookupProtocol::next_hop, restricted to hosts whose published
// heartbeat is live). When no live neighbor precedes the target — the greedy
// invariant is unsatisfiable because the hosts that would make progress are
// down — fall back to the live neighbor whose representative guest is
// ring-closest to the target in either direction. Detours can revisit hosts;
// the hop cap bounds the walk and the client's replica retry covers the rest.
template <typename IsLive>
NodeId next_live_hop(const KvProtocol::NodeState& st, GuestId t,
                     std::uint64_t n, NodeId avoid, IsLive&& is_live) {
  if (t >= st.lo && t < st.hi) return KvProtocol::kNoneHost;
  NodeId best_host = KvProtocol::kNoneHost;
  std::uint64_t best_dist = ~std::uint64_t{0};
  NodeId detour_host = KvProtocol::kNoneHost;
  std::uint64_t detour_dist = ~std::uint64_t{0};
  const auto consider = [&](GuestId g, NodeId host) {
    if (host == KvProtocol::kNoneHost || !is_live(host)) return;
    const std::uint64_t fwd = cw(g, t, n);
    if (fwd < best_dist) {
      best_dist = fwd;
      best_host = host;
    }
    if (host != avoid) {
      const std::uint64_t either = std::min(fwd, cw(t, g, n));
      if (either < detour_dist) {
        detour_dist = either;
        detour_host = host;
      }
    }
  };
  for (const auto& level : st.fwd) {
    for (const auto& e : level.entries()) {
      GuestId g;
      if (t >= e.lo && t < e.hi) {
        g = t;
      } else {
        g = e.hi - 1;
        if (cw(e.lo, t, n) < cw(g, t, n)) g = e.lo;
      }
      consider(g, e.value);
    }
  }
  if (st.succ != KvProtocol::kNoneHost) consider(st.hi % n, st.succ);
  return best_host != KvProtocol::kNoneHost ? best_host : detour_host;
}

}  // namespace

std::uint64_t key_to_guest(std::uint64_t key, std::uint64_t n_guests) {
  CHS_CHECK(n_guests >= 1);
  return mix64(key * 0x9e3779b97f4a7c15ULL + 0x1357) % n_guests;
}

GuestId replica_guest(std::uint64_t key, std::uint32_t j,
                      std::uint32_t n_replicas, std::uint64_t n_guests) {
  CHS_CHECK(n_replicas >= 1 && j < n_replicas);
  const std::uint64_t stride = n_guests / n_replicas;
  return (key_to_guest(key, n_guests) + j * stride) % n_guests;
}

std::optional<KvProtocol::Message> KvProtocol::NodeState::take_completion(
    std::uint64_t op_id, Message::Kind kind) {
  for (auto it = completed.begin(); it != completed.end(); ++it) {
    if (it->op_id == op_id && it->kind == kind) {
      Message m = std::move(*it);
      completed.erase(it);
      return m;
    }
  }
  return std::nullopt;
}

std::uint64_t KvProtocol::NodeState::live_bytes() const {
  const auto msg_bytes = [](const Message& m) {
    return sizeof(Message) + m.value.size();
  };
  std::uint64_t b = 0;
  for (const auto& [k, v] : store) b += sizeof(k) + sizeof(std::string) + v.size();
  for (const auto& m : to_send) b += msg_bytes(m);
  for (const auto& m : completed) b += msg_bytes(m);
  return b;
}

void KvProtocol::schedule_wakeups(Ctx&) const {
  // Purely message-driven: deliveries wake recipients and injections wake
  // their host via state_mut, so no timer wakeups are ever needed.
}

void KvProtocol::step(Ctx& ctx) {
  auto& st = ctx.state();
  if (st.down) {
    // A down host neither originates nor forwards. Account for everything it
    // swallows so availability numbers are attributable, not mysterious.
    st.dropped_ops += st.to_send.size();
    st.to_send.clear();
    st.dropped_msgs += ctx.inbox().size();
    schedule_wakeups(ctx);
    return;
  }

  const auto is_live = [&](NodeId h) {
    if (!ctx.is_neighbor(h)) return false;
    const auto* view = ctx.view(h);
    return view != nullptr && !view->down;
  };

  const auto deliver_local = [&](const Message& m) {
    switch (m.kind) {
      case Message::Kind::kPut: {
        st.store[m.key] = m.value;
        ++st.served_puts;
        Message ack;
        ack.kind = Message::Kind::kPutAck;
        ack.op_id = m.op_id;
        ack.key = m.key;
        ack.target = m.reply_home;  // guest inside the client's range
        ack.origin = ctx.self();
        ack.hops = m.hops;
        return ack;
      }
      case Message::Kind::kGet: {
        ++st.served_gets;
        Message rep;
        rep.kind = Message::Kind::kGetReply;
        rep.op_id = m.op_id;
        rep.key = m.key;
        const auto it = st.store.find(m.key);
        rep.found = it != st.store.end();
        if (rep.found) rep.value = it->second;
        rep.target = m.reply_home;  // guest inside the client's range
        rep.origin = ctx.self();
        rep.hops = m.hops;
        return rep;
      }
      case Message::Kind::kPutAck:
      case Message::Kind::kGetReply:
        st.completed.push_back(m);
        return Message{};  // sentinel: nothing to route onward
    }
    return Message{};
  };

  const auto route = [&](Message m, NodeId from) {
    while (true) {
      if (m.target >= st.lo && m.target < st.hi) {
        Message reply = deliver_local(m);
        if (m.kind == Message::Kind::kPut || m.kind == Message::Kind::kGet) {
          m = std::move(reply);  // route the ack/reply from here
          from = ctx.self();
          continue;
        }
        return;  // ack/reply consumed by the client host
      }
      if (m.hops >= hop_cap(n_guests_)) return;  // detoured too long: drop
      // Prefer not to bounce straight back to the sender when detouring.
      const NodeId next =
          next_live_hop(st, m.target, n_guests_, /*avoid=*/from, is_live);
      if (next == kNoneHost || next == ctx.self()) return;  // dead end: drop
      ++m.hops;
      ctx.send(next, m);
      return;
    }
  };

  for (Message& m : st.to_send) route(std::move(m), ctx.self());
  st.to_send.clear();
  for (const auto& env : ctx.inbox()) route(env.msg, env.from);
  schedule_wakeups(ctx);
}

std::unique_ptr<KvEngine> make_kv_engine(const core::StabEngine& src,
                                         std::uint64_t seed,
                                         std::uint32_t max_message_delay) {
  CHS_CHECK_MSG(core::is_converged(src),
                "the KV data plane requires a converged stabilizer engine");
  const std::uint64_t n = src.protocol().params().n_guests;
  graph::Graph g(src.graph().ids());
  for (const auto& [u, v] : src.graph().edge_list()) g.add_edge(u, v);
  auto eng = std::make_unique<KvEngine>(std::move(g), KvProtocol(n), seed);
  for (NodeId id : eng->graph().ids()) {
    const auto& from = src.state(id);
    auto& to = eng->state_mut(id);
    to.lo = from.lo;
    to.hi = from.hi;
    to.fwd = from.fwd_maps;
    to.succ =
        from.succ == stabilizer::kNone ? KvProtocol::kNoneHost : from.succ;
  }
  eng->set_max_message_delay(max_message_delay);
  eng->republish();
  return eng;
}

std::uint64_t total_drops(const KvEngine& eng) {
  std::uint64_t total = 0;
  for (NodeId id : eng.graph().ids()) {
    const auto& st = eng.state(id);
    total += st.dropped_ops + st.dropped_msgs;
  }
  return total;
}

}  // namespace chs::dht
