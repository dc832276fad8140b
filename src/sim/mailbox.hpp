// Inbox storage for the round engine (DESIGN.md D5).
//
// One vector of envelopes per node, owned centrally so that (a) capacity is
// retained across rounds — a node that receives k messages every round never
// reallocates after the first — and (b) clearing happens at exactly one
// point per round (the seed engine cleared each inbox twice: once per-node
// after stepping and again in a second full sweep). Only the boxes actually
// touched this round are cleared, so a quiescent network pays nothing.
//
// Threading contract (DESIGN.md D6): deliver/begin_round/end_round run only
// in the engine's serial release phase; during the parallel step phase the
// pool is frozen and workers read inbox() spans concurrently, which is why
// no box may be appended to while any step is in flight.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/check.hpp"

namespace chs::sim {

/// A message in flight: payload plus the sender's id.
template <typename M>
struct Envelope {
  graph::NodeId from;
  M msg;

  template <typename A>
  void persist_fields(A& a) {
    a(from);
    a(msg);
  }
};

template <typename M>
class MailboxPool {
 public:
  void init(std::size_t n) {
    boxes_.assign(n, {});
    touched_mark_.assign(n, 0);
    touched_.clear();
    delivered_this_round_ = 0;
  }

  /// Append a delivery to node i's inbox for the current round.
  void deliver(graph::NodeIndex i, Envelope<M> env) {
    CHS_DCHECK(i < boxes_.size());
    if (!touched_mark_[i]) {
      touched_mark_[i] = 1;
      touched_.push_back(i);
    }
    boxes_[i].push_back(std::move(env));
    ++delivered_this_round_;
  }

  std::span<const Envelope<M>> inbox(graph::NodeIndex i) const {
    return boxes_[i];
  }

  bool has_mail(graph::NodeIndex i) const { return !boxes_[i].empty(); }

  std::uint64_t delivered_this_round() const { return delivered_this_round_; }

  void begin_round() { delivered_this_round_ = 0; }

  /// The single per-round clear point. Keeps each box's capacity (arena
  /// reuse) and visits only the boxes delivered to this round.
  void end_round() {
    for (graph::NodeIndex i : touched_) {
      boxes_[i].clear();
      touched_mark_[i] = 0;
    }
    touched_.clear();
  }

  /// Checkpoint restore (DESIGN.md D9, D10): between rounds every box is
  /// empty and no box is touched — end_round() is the single clear point —
  /// so an engine checkpoint records only `delivered` and rebuilds the
  /// arena. Sizes and counters match the live pool; only capacities (never
  /// serialized) differ.
  void reset_empty(std::size_t n, std::uint64_t delivered) {
    init(n);
    delivered_this_round_ = delivered;
  }

  /// Approximate resident bytes of the arena (capacities, not sizes): the
  /// bytes_per_host accounting. O(n) — call on demand, never per round.
  std::size_t live_bytes() const {
    std::size_t b = boxes_.capacity() * sizeof(boxes_[0]) +
                    touched_mark_.capacity() +
                    touched_.capacity() * sizeof(graph::NodeIndex);
    for (const auto& box : boxes_) b += box.capacity() * sizeof(Envelope<M>);
    return b;
  }

 private:
  std::vector<std::vector<Envelope<M>>> boxes_;
  std::vector<std::uint8_t> touched_mark_;
  std::vector<graph::NodeIndex> touched_;
  std::uint64_t delivered_this_round_ = 0;
};

}  // namespace chs::sim
