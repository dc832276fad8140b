// Struct-of-arrays snapshot arena for the stabilizer (DESIGN.md D10).
//
// A stabilizer PublicState is a dozen scalars plus two sorted id lists. The
// default store materializes each snapshot as a separate object — at a
// million hosts that is a million pairs of heap vectors, copied and compared
// through three levels of indirection on every dirty publish. The arena
// splits the snapshot instead:
//
//   * hot rows  — one fixed-stride HotRow per node, all scalar fields, in
//     one contiguous array indexed by NodeIndex. A publish that changes only
//     scalars is a handful of stores into one cache line.
//   * slab      — the variable-length payloads (nbrs, structural) live in a
//     shared bump slab of NodeId, addressed by generation-tagged handles.
//     Publishing a changed list appends the new copy and retires the old
//     one's bytes as garbage; untouched lists keep their handle, so a
//     quiescent node costs nothing per round.
//
// Views are value types (PublicView): scalars copied out of the row, lists
// exposed as spans into the slab. Handing out spans is safe because the
// engine only builds views during the step phase, when no publish or
// compaction runs (see sim/snapshot.hpp's store contract).
//
// Parallel publish discipline: during the engine's sharded publish phase no
// shard may touch the shared slab (appends could reallocate it under a
// concurrent payload compare from another shard). A changed payload is
// instead copied into the calling shard's pending buffer — pooled per
// worker shard, reused every round — and finish_publish() flushes the
// buffers serially in shard order. Shards cover ascending node ranges, so
// flush order equals ascending node-index order and every slab offset is
// bit-for-bit identical at any worker count. finish_publish() also compacts
// once at least half the slab is garbage, repacking live payloads in
// node-index order and bumping the generation tag; a stale handle surviving
// a compaction is a bug caught by the debug-build generation check.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "stabilizer/state.hpp"
#include "util/check.hpp"

namespace chs::stabilizer {

using graph::NodeIndex;

/// Value-type neighbor view over one arena row. Mirrors the read interface
/// of `const PublicState*` — operator-> and operator* let
/// `view->cluster` / `(*view).nbrs` work unchanged, and explicit bool
/// replaces the `!= nullptr` test — so call sites only swap
/// `const auto* v` for `const auto v`.
struct PublicView {
  NodeId id = kNone;
  Phase phase = Phase::kCbt;
  NodeId cluster = kNone;
  NodeId merging_with = kNone;
  std::uint64_t lo = 0, hi = 0;
  NodeId succ = kNone, pred = kNone;
  std::int32_t wave_k = -1;
  std::int32_t active_wave_k = -1;
  bool in_phase_wave = false;
  bool in_done_wave = false;
  std::span<const NodeId> nbrs;
  std::span<const NodeId> structural;

  bool has_neighbor(NodeId v) const {
    return std::binary_search(nbrs.begin(), nbrs.end(), v);
  }

  bool considers_structural(NodeId v) const {
    return std::binary_search(structural.begin(), structural.end(), v);
  }

  explicit operator bool() const { return valid_; }
  const PublicView* operator->() const { return this; }
  const PublicView& operator*() const { return *this; }

  bool valid_ = false;  // set by SnapshotArena::view for existing neighbors
};

/// Struct-of-arrays snapshot store for Protocol (declared via
/// `using SnapshotStore = SnapshotArena;`). Methods are templated on the
/// protocol/state types to keep this header independent of protocol.hpp.
/// Requires an active-set protocol: the engine's kAll mode republishes every
/// node every round, which would grow the slab by the full payload volume
/// per round between compactions.
class SnapshotArena {
 public:
  using PublicState = stabilizer::PublicState;
  using View = PublicView;

  void init(std::size_t n) {
    rows_.assign(n, HotRow{});
    slab_.clear();
    garbage_ = 0;
    ++generation_;
  }

  View view(NodeIndex i) const {
    const HotRow& r = rows_[i];
    PublicView v;
    v.id = r.id;
    v.phase = r.phase;
    v.cluster = r.cluster;
    v.merging_with = r.merging_with;
    v.lo = r.lo;
    v.hi = r.hi;
    v.succ = r.succ;
    v.pred = r.pred;
    v.wave_k = r.wave_k;
    v.active_wave_k = r.active_wave_k;
    v.in_phase_wave = r.in_phase_wave;
    v.in_done_wave = r.in_done_wave;
    v.nbrs = payload(r.nbrs);
    v.structural = payload(r.structural);
    v.valid_ = true;
    return v;
  }

  template <typename Proto, typename State>
  void publish_now(Proto& proto, const State& state, NodeIndex i) {
    PublicState tmp;
    proto.publish(state, tmp);
    store(i, tmp);
  }

  void begin_publish(std::size_t shards) {
    if (pending_.size() < shards) pending_.resize(shards);
  }

  template <typename Proto, typename State>
  void publish(Proto& proto, const State& state, NodeIndex i,
               std::size_t shard) {
    PublicState tmp;
    proto.publish(state, tmp);
    store_sharded(i, tmp, shard);
  }

  template <typename Proto, typename State>
  bool publish_compare(Proto& proto, const State& state, NodeIndex i,
                       PublicState& scratch, std::size_t shard) {
    proto.publish(state, scratch);  // overwrites every field
    if (row_equals(i, scratch)) return false;
    store_sharded(i, scratch, shard);
    return true;
  }

  /// Flush the shards' pending payloads into the slab (shard order ==
  /// ascending node order), then compact if at least half the slab is
  /// retired bytes.
  void finish_publish() {
    for (PendingShard& p : pending_) {
      for (const PendingPayload& e : p.entries) {
        Handle& h = e.structural ? rows_[e.node].structural : rows_[e.node].nbrs;
        garbage_ += h.len;
        h = append({p.data.data() + e.off, e.len});
      }
      p.entries.clear();  // capacities retained: the buffers are pooled
      p.data.clear();
    }
    if (garbage_ != 0 && garbage_ * 2 >= slab_.size()) compact();
  }

  /// Serial overwrite of node i's snapshot (restore path; publish_now).
  void store(NodeIndex i, const PublicState& ps) {
    HotRow& r = rows_[i];
    store_scalars(r, ps);
    if (!payload_equals(r.nbrs, ps.nbrs)) {
      garbage_ += r.nbrs.len;
      r.nbrs = append({ps.nbrs.data(), ps.nbrs.size()});
    }
    if (!payload_equals(r.structural, ps.structural)) {
      garbage_ += r.structural.len;
      r.structural = append({ps.structural.data(), ps.structural.size()});
    }
  }

  std::size_t live_bytes() const {
    std::size_t b = rows_.capacity() * sizeof(HotRow) +
                    slab_.capacity() * sizeof(NodeId);
    for (const PendingShard& p : pending_) {
      b += p.data.capacity() * sizeof(NodeId) +
           p.entries.capacity() * sizeof(PendingPayload);
    }
    return b;
  }

  std::size_t slab_size() const { return slab_.size(); }
  std::size_t slab_garbage() const { return garbage_; }
  std::uint32_t generation() const { return generation_; }

  /// Copy node i's snapshot out in the canonical PublicState form: the unit
  /// engine checkpoints serialize, independent of slab layout and worker
  /// count.
  void materialize(NodeIndex i, PublicState& out) const {
    const HotRow& r = rows_[i];
    out.id = r.id;
    out.phase = r.phase;
    out.cluster = r.cluster;
    out.merging_with = r.merging_with;
    out.lo = r.lo;
    out.hi = r.hi;
    out.succ = r.succ;
    out.pred = r.pred;
    out.wave_k = r.wave_k;
    out.active_wave_k = r.active_wave_k;
    out.in_phase_wave = r.in_phase_wave;
    out.in_done_wave = r.in_done_wave;
    const auto nb = payload(r.nbrs);
    out.nbrs.assign(nb.begin(), nb.end());
    const auto su = payload(r.structural);
    out.structural.assign(su.begin(), su.end());
  }

 private:
  /// Generation-tagged handle into the slab. `gen` records the slab
  /// generation the handle was minted under; payload() checks it in debug
  /// builds so a handle kept across a compaction cannot silently read
  /// relocated bytes.
  struct Handle {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
    std::uint32_t gen = 0;
  };

  /// Fixed-stride hot fields of one node's snapshot (~96 bytes, vs. a
  /// PublicState object plus two heap vectors in the default store).
  struct HotRow {
    NodeId id = kNone;
    NodeId cluster = kNone;
    NodeId merging_with = kNone;
    std::uint64_t lo = 0, hi = 0;
    NodeId succ = kNone, pred = kNone;
    std::int32_t wave_k = -1;
    std::int32_t active_wave_k = -1;
    Handle nbrs;
    Handle structural;
    Phase phase = Phase::kCbt;
    bool in_phase_wave = false;
    bool in_done_wave = false;
  };

  /// One shard's publish-phase side buffer: changed payload values copied
  /// into `data`, one entry per changed list.
  struct PendingPayload {
    NodeIndex node;
    bool structural;  // false: nbrs
    std::uint32_t off, len;
  };
  struct PendingShard {
    std::vector<NodeId> data;
    std::vector<PendingPayload> entries;
  };

  std::span<const NodeId> payload(const Handle& h) const {
    CHS_DCHECK(h.len == 0 || h.gen == generation_);
    return {slab_.data() + h.off, h.len};
  }

  bool payload_equals(const Handle& h, const std::vector<NodeId>& v) const {
    if (h.len != v.size()) return false;
    return std::equal(v.begin(), v.end(), slab_.begin() + h.off);
  }

  bool row_equals(NodeIndex i, const PublicState& ps) const {
    const HotRow& r = rows_[i];
    return r.id == ps.id && r.phase == ps.phase && r.cluster == ps.cluster &&
           r.merging_with == ps.merging_with && r.lo == ps.lo &&
           r.hi == ps.hi && r.succ == ps.succ && r.pred == ps.pred &&
           r.wave_k == ps.wave_k && r.active_wave_k == ps.active_wave_k &&
           r.in_phase_wave == ps.in_phase_wave &&
           r.in_done_wave == ps.in_done_wave &&
           payload_equals(r.nbrs, ps.nbrs) &&
           payload_equals(r.structural, ps.structural);
  }

  static void store_scalars(HotRow& r, const PublicState& ps) {
    r.id = ps.id;
    r.phase = ps.phase;
    r.cluster = ps.cluster;
    r.merging_with = ps.merging_with;
    r.lo = ps.lo;
    r.hi = ps.hi;
    r.succ = ps.succ;
    r.pred = ps.pred;
    r.wave_k = ps.wave_k;
    r.active_wave_k = ps.active_wave_k;
    r.in_phase_wave = ps.in_phase_wave;
    r.in_done_wave = ps.in_done_wave;
  }

  /// Publish-phase overwrite: scalars go straight into the row (each node
  /// belongs to exactly one shard), changed payloads into the shard's
  /// pending buffer for the serial flush.
  void store_sharded(NodeIndex i, const PublicState& ps, std::size_t shard) {
    HotRow& r = rows_[i];
    store_scalars(r, ps);
    if (!payload_equals(r.nbrs, ps.nbrs)) {
      defer_payload(i, ps.nbrs, /*structural=*/false, shard);
    }
    if (!payload_equals(r.structural, ps.structural)) {
      defer_payload(i, ps.structural, /*structural=*/true, shard);
    }
  }

  void defer_payload(NodeIndex i, const std::vector<NodeId>& v,
                     bool structural, std::size_t shard) {
    PendingShard& p = pending_[shard];
    p.entries.push_back({i, structural,
                         static_cast<std::uint32_t>(p.data.size()),
                         static_cast<std::uint32_t>(v.size())});
    p.data.insert(p.data.end(), v.begin(), v.end());
  }

  Handle append(std::span<const NodeId> v) {
    Handle h;
    h.off = static_cast<std::uint32_t>(slab_.size());
    h.len = static_cast<std::uint32_t>(v.size());
    h.gen = generation_;
    slab_.insert(slab_.end(), v.begin(), v.end());
    return h;
  }

  void compact() {
    std::vector<NodeId> packed;
    packed.reserve(slab_.size() - garbage_);
    ++generation_;
    for (HotRow& r : rows_) {
      r.nbrs = repack(packed, r.nbrs);
      r.structural = repack(packed, r.structural);
    }
    slab_ = std::move(packed);
    garbage_ = 0;
  }

  Handle repack(std::vector<NodeId>& packed, const Handle& old) const {
    Handle h;
    h.off = static_cast<std::uint32_t>(packed.size());
    h.len = old.len;
    h.gen = generation_;  // already bumped by compact()
    packed.insert(packed.end(), slab_.begin() + old.off,
                  slab_.begin() + old.off + old.len);
    return h;
  }

  std::vector<HotRow> rows_;
  std::vector<NodeId> slab_;
  std::vector<PendingShard> pending_;  // pooled per worker shard
  std::size_t garbage_ = 0;
  std::uint32_t generation_ = 0;
};

}  // namespace chs::stabilizer
