// Snapshot storage behind the engine's neighbor views (DESIGN.md D10).
//
// The engine never touches `std::vector<PublicState>` directly any more: all
// snapshot reads and writes go through a *snapshot store*, chosen per
// protocol. The default VectorSnapshotStore below keeps the historical
// layout — one PublicState object per node, views are plain pointers — and
// is what every protocol gets for free. A protocol can opt into a custom
// layout (e.g. the stabilizer's struct-of-arrays arena in
// stabilizer/snapshot.hpp) by declaring
//
//   using SnapshotStore = MyStore;
//
// A store provides:
//   using PublicState = ...;            // the protocol's snapshot type
//   using View = ...;                   // what NodeCtx::view returns; must be
//                                       // cheap to copy, default-construct to
//                                       // a "no such neighbor" value, and be
//                                       // contextually convertible to bool
//   void init(std::size_t n);           // (re)create n empty snapshots
//   View view(NodeIndex i) const;       // read node i's snapshot
//   void publish_now(proto, state, i);  // serial unconditional refresh
//                                       // (engine ctor, republish fallback)
//   void begin_publish(std::size_t shards);
//   void publish(proto, state, i, shard);
//   bool publish_compare(proto, state, i, scratch, shard);
//   void finish_publish();
//   void store(i, const PublicState&);  // serial overwrite (restore path)
//   void materialize(i, PublicState&);  // copy node i's snapshot out in the
//                                       // canonical PublicState form that
//                                       // checkpoints serialize: byte-
//                                       // identical across store layouts and
//                                       // worker counts
//   std::size_t live_bytes() const;     // approximate heap footprint
//
// The engine's dirty-publish phase is bracketed by begin_publish(shards) /
// finish_publish(), both called serially. In between, publish and
// publish_compare may run concurrently from the worker pool; each node index
// is touched by exactly one shard per round, and the calling shard's index
// rides along so a store can keep per-shard scratch (no locking on the hot
// path). publish_compare refreshes node i and returns whether the snapshot
// changed (this drives dirty propagation); `scratch` is the calling shard's
// PublicState scratch object. Deferred work (e.g. slab appends) must be
// applied in finish_publish in (shard, call) order, which equals ascending
// node-index order — keeping any internal offsets deterministic at every
// worker count. view() is only called during the step phase, never
// concurrently with publishes, so handed-out views stay valid for the whole
// step.
#pragma once

#include <concepts>
#include <cstddef>
#include <vector>

#include "graph/graph.hpp"

namespace chs::sim {

using graph::NodeIndex;

/// Default store: the engine's historical array-of-structs layout. Views are
/// pointers into the array, so every existing `const auto* view = ...;
/// view == nullptr` call site compiles unchanged. Publishes write each
/// node's object in place — already shard-safe, so the phase bracket and
/// shard index are no-ops here.
template <typename P>
class VectorSnapshotStore {
 public:
  using PublicState = typename P::PublicState;
  using View = const PublicState*;

  void init(std::size_t n) { publics_.assign(n, PublicState{}); }

  View view(NodeIndex i) const { return &publics_[i]; }

  template <typename State>
  void publish_now(P& proto, const State& state, NodeIndex i) {
    proto.publish(state, publics_[i]);
  }

  void begin_publish(std::size_t) {}

  template <typename State>
  void publish(P& proto, const State& state, NodeIndex i, std::size_t) {
    proto.publish(state, publics_[i]);
  }

  /// Refresh node i and report whether its snapshot changed. Protocols whose
  /// PublicState is not equality-comparable conservatively treat every
  /// publish as a change.
  template <typename State>
  bool publish_compare(P& proto, const State& state, NodeIndex i,
                       PublicState& scratch, std::size_t) {
    if constexpr (std::equality_comparable<PublicState>) {
      scratch = publics_[i];
      proto.publish(state, publics_[i]);
      return !(scratch == publics_[i]);
    } else {
      proto.publish(state, publics_[i]);
      return true;
    }
  }

  void finish_publish() {}

  void store(NodeIndex i, const PublicState& ps) { publics_[i] = ps; }

  void materialize(NodeIndex i, PublicState& out) const {
    out = publics_[i];
  }

  std::size_t live_bytes() const {
    return publics_.capacity() * sizeof(PublicState);
  }

 private:
  std::vector<PublicState> publics_;
};

namespace detail {

template <typename P>
struct snapshot_store {
  using type = VectorSnapshotStore<P>;
};

template <typename P>
  requires requires { typename P::SnapshotStore; }
struct snapshot_store<P> {
  using type = typename P::SnapshotStore;
};

/// The snapshot store Engine<P> uses: P::SnapshotStore if declared, else the
/// default vector store.
template <typename P>
using snapshot_store_t = typename snapshot_store<P>::type;

}  // namespace detail

}  // namespace chs::sim
