#include "dht/kvstore.hpp"

#include <memory>
#include <utility>

#include "util/check.hpp"

namespace chs::dht {
namespace {

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
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

  // view() is null for a non-neighbor, so it alone is the membership test.
  const auto is_live = [&](NodeId h) {
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

  const auto route = [&](Message m) {
    while (true) {
      if (m.target >= st.lo && m.target < st.hi) {
        Message reply = deliver_local(m);
        if (m.kind == Message::Kind::kPut || m.kind == Message::Kind::kGet) {
          m = std::move(reply);  // route the ack/reply from here
          continue;
        }
        return;  // ack/reply consumed by the client host
      }
      // Greedy forwarding over live neighbors need not make progress once
      // the hosts that would are down; the hop cap ends such walks and the
      // client's timeout and replica retry cover the rest.
      if (m.hops >= routing::hop_budget(n_guests_)) return;
      const NodeId next = routing::next_hop(st, m.target, n_guests_, is_live);
      if (next == kNoneHost || next == ctx.self()) return;  // dead end: drop
      ++m.hops;
      ctx.send(next, std::move(m));
      return;
    }
  };

  for (Message& m : st.to_send) route(std::move(m));
  st.to_send.clear();
  for (const auto& env : ctx.inbox()) route(env.msg);
  schedule_wakeups(ctx);
}

std::unique_ptr<KvEngine> make_kv_engine(const core::StabEngine& src,
                                         std::uint64_t seed,
                                         std::uint32_t max_message_delay) {
  CHS_CHECK_MSG(core::is_converged(src),
                "a data plane requires a converged stabilizer engine");
  graph::Graph g(src.graph().ids());
  for (const auto& [u, v] : src.graph().edge_list()) g.add_edge(u, v);
  auto eng = std::make_unique<KvEngine>(
      std::move(g), KvProtocol(src.protocol().params().n_guests), seed);
  for (NodeId id : eng->graph().ids()) {
    const auto& from = src.state(id);
    routing::RouteTable& to = eng->state_mut(id);
    to = routing::RouteTable{from.lo, from.hi, from.fwd_maps, from.succ};
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
