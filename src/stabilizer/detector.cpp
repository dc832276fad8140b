// Fault detection and phase selection (§4.4, Definition 3, Lemmas 1-2).
//
// Every round, every host checks its own state and the previous-round public
// state of its neighbors. Any inconsistency — malformed range, map keys that
// disagree with the forced crossing-edge geometry, structural neighbors in
// the wrong cluster or with non-tiling ranges, wave counters that violate
// the scaffolded-Chord predicate, expired merge/wave budgets, or a neighbor
// in a different phase without an in-flight phase wave to explain it —
// resets the host to a singleton cluster: it becomes its own cluster hosting
// the entire N-guest Cbt, keeps every incident edge (they remain the
// connectivity substrate, reclassified as external), and starts executing
// the Avatar(Cbt) algorithm. Per Lemma 2 this reset infects the network in
// O(log N) rounds when the configuration is neither legal nor scaffolded.
#include <algorithm>
#include <vector>

#include "stabilizer/protocol.hpp"
#include "util/log.hpp"

namespace chs::stabilizer {

namespace {

/// Wrap-aware coverage check of [lo+shift, hi+shift) mod n.
bool covers_mod(const util::IntervalMap<NodeId>& map, std::uint64_t lo,
                std::uint64_t hi, std::uint64_t n) {
  if (lo >= n) {
    lo -= n;
    hi -= n;
  }
  if (hi <= n) return map.covers(lo, hi);
  return map.covers(lo, n) && map.covers(0, hi - n);
}

}  // namespace


// Reset diagnostics: record the detector line that fired (tests and the
// debug tracer read HostState::fault_line).
#define CHS_FAULT()                      \
  do {                                   \
    ctx.state().fault_line = __LINE__;   \
    return false;                        \
  } while (0)

bool Protocol::check_local(Ctx& ctx) const {
  const HostState& st = ctx.state();
  const std::uint64_t n = params_.n_guests;
  const std::uint64_t now = ctx.round();

  // --- 0. Well-formedness of my own claims -------------------------------
  if (st.id != ctx.self()) CHS_FAULT();
  if (st.id >= n) CHS_FAULT();
  if (st.hi > n || st.lo >= st.hi) CHS_FAULT();
  if (st.lo != 0 && st.lo != st.id) CHS_FAULT();
  if (st.id < st.lo || st.id >= st.hi) CHS_FAULT();
  const bool hosts_guest_root = guest_root() >= st.lo && guest_root() < st.hi;
  if (hosts_guest_root != st.is_root()) CHS_FAULT();
  if ((st.hi == n) != (st.succ == kNone)) CHS_FAULT();
  if ((st.lo == 0) != (st.pred == kNone)) CHS_FAULT();
  if (st.cluster == kNone) CHS_FAULT();

  // --- 1. Map keys must equal the forced crossing-edge geometry ----------
  // The fragment cache holds that geometry for [frags_lo, frags_hi); only
  // external fault injection moves lo/hi without recomputing it.
  if (st.frags_lo != st.lo || st.frags_hi != st.hi) {
    recompute_fragments(ctx.state());
  }
  {
    // Out-edge children are exactly the boundary_host keys (both sorted).
    const auto same_key = [](const auto& a, const auto& b) {
      return a.first == b.first;
    };
    if (!std::equal(st.boundary_host.begin(), st.boundary_host.end(),
                    st.out_edge_to_entry.begin(), st.out_edge_to_entry.end(),
                    same_key)) {
      CHS_FAULT();
    }
    // Entries with an out-of-range parent are exactly the parent_host keys.
    std::size_t np = 0;
    for (const auto& f : st.frags) {
      if (!f.parent_pos) continue;
      if (!st.parent_host.count(f.entry)) CHS_FAULT();
      ++np;
    }
    if (st.parent_host.size() != np) CHS_FAULT();
  }

  // --- 2. Budgets ---------------------------------------------------------
  if (st.merge.stage != MergeStage::kNone && now > st.merge.deadline) {
    CHS_FAULT();
  }
  if (st.active_wave_k != -1 && now > st.active_wave_deadline) CHS_FAULT();
  if (st.phase != Phase::kCbt && st.merge.stage != MergeStage::kNone) {
    CHS_FAULT();
  }

  // --- 3. Neighbor consistency --------------------------------------------
  const bool merge_window =
      st.merge.stage != MergeStage::kNone || now < st.recent_until;
  // cluster_ok and check_structural record their own fault line, so their
  // callers return false rather than overwrite it with an outer line.
  const auto cluster_ok = [&](const auto& v) {
    if (v.cluster == st.cluster) return true;
    if (st.merge.stage != MergeStage::kNone &&
        (v.cluster == st.merge.peer_cluster || v.merging_with == st.cluster)) {
      return true;
    }
    if (now < st.recent_until &&
        (v.cluster == st.recent_a || v.cluster == st.recent_b)) {
      return true;
    }
    CHS_FAULT();
  };

  // Every check of a boundary/parent reference but the range check depends
  // on the referenced host alone, and the references come in runs naming
  // the same host (a boundary map often ends on the host the parent map
  // starts with). The last host that passed them is remembered across both
  // loops, so a repeat runs only the range check at its own position; the
  // first check to fail is the same one either way.
  NodeId checked_host = kNone;
  Ctx::SnapshotView ref{};
  const auto check_structural = [&](GuestId pos, NodeId host) {
    if (host == kNone || host == st.id) CHS_FAULT();
    const bool repeat = host == checked_host;
    if (!repeat) {
      ref = ctx.view(host);  // false-y for a non-neighbor
      if (!ref) CHS_FAULT();
      if (!cluster_ok(*ref)) return false;
    }
    if (!merge_window && (pos < ref->lo || pos >= ref->hi)) CHS_FAULT();
    if (repeat) return true;
    // Reciprocity: every crossing edge is held by both endpoints, so a
    // legal boundary/parent reference is mirrored by the peer (my parent's
    // boundary map names me, and vice versa). A reference the peer does
    // not reciprocate is stale — e.g. a member carrying a pre-corruption
    // cluster structure whose every other local check passes by id
    // collision (the parasitic-enclave configuration found by the
    // invariant oracle: edge hygiene used to "detect" it by severing the
    // referenced edge, manufacturing the very dangling-reference fault I4
    // forbids; now the referencing host detects it itself).
    if (!merge_window && !ref->considers_structural(st.id)) CHS_FAULT();
    checked_host = host;
    return true;
  };
  for (const auto& [pos, host] : st.boundary_host) {
    if (!check_structural(pos, host)) return false;
  }
  // parent_host is keyed by my entry position; the *parent* position must
  // lie in the neighbor's range. Check 1 matched its keys to the fragments
  // with a parent, and both are sorted by entry, so they walk in step.
  auto ph = st.parent_host.begin();
  for (const auto& f : st.frags) {
    if (!f.parent_pos) continue;  // the guest root has no parent entry
    if (!check_structural(*f.parent_pos, (ph++)->second)) return false;
  }
  if (st.succ != kNone) {
    const auto v = ctx.view(st.succ);
    if (!v) CHS_FAULT();
    if (!cluster_ok(*v)) return false;
    if (!merge_window && v->id != st.hi) CHS_FAULT();  // ranges must tile
    // Ring reciprocity: my successor's pred pointer names me (same
    // stale-membership argument as the structural-map check above).
    if (!merge_window && v->pred != st.id) CHS_FAULT();
  }
  if (st.pred != kNone) {
    const auto v = ctx.view(st.pred);
    if (!v) CHS_FAULT();
    if (!cluster_ok(*v)) return false;
    if (!merge_window && v->hi != st.lo) CHS_FAULT();
    if (!merge_window && v->succ != st.id) CHS_FAULT();
  }

  // --- 4. Phase agreement (Lemma 2's infection rule) and Lemma 1's
  // extra-neighbor detection: past phase CBT my cluster spans the network,
  // so *every* neighbor must belong to it — an edge to another cluster is
  // exactly the "neighbor it would not have in the correct configuration".
  if (st.phase != Phase::kCbt) {
    for (std::size_t k = 0; k < ctx.neighbors().size(); ++k) {
      const auto view = ctx.view_at(k);
      if (!cluster_ok(*view)) return false;
      if (view->phase == st.phase) continue;
      const bool wave_explains = st.in_phase_wave || st.in_done_wave ||
                                 view->in_phase_wave || view->in_done_wave;
      if (!wave_explains) CHS_FAULT();
    }
  }

  // --- 5. Scaffolded-Chord predicate (Definition 3) ------------------------
  if (st.phase != Phase::kCbt) {
    const auto w = static_cast<std::int32_t>(num_waves_);
    if (st.wave_k < -1 || st.wave_k >= w) CHS_FAULT();
    if (st.active_wave_k != -1 && st.active_wave_k != st.wave_k + 1) {
      CHS_FAULT();
    }
    if (st.fwd_maps.size() != num_waves_ || st.rev_maps.size() != num_waves_) {
      CHS_FAULT();
    }
    // Condition 3: structural neighbors have k-1, k, or k+1 fingers built.
    // The check is direction-free at host granularity: a host's wave_k is
    // the minimum over its fragments, and two hosts can simultaneously be
    // parent and child of each other at different tree positions.
    if (!st.in_phase_wave) {
      thread_local std::vector<NodeId> structural;  // scratch (DESIGN.md D6)
      structural_neighbors(st, structural);
      for (NodeId host : structural) {
        const auto v = ctx.view(host);
        if (!v) CHS_FAULT();
        if (v->phase == Phase::kCbt) continue;  // phase rule handled above
        const std::int64_t diff =
            static_cast<std::int64_t>(st.wave_k) - v->wave_k;
        if (diff < -1 || diff > 1) CHS_FAULT();
      }
    }
    // Fingers 0..k present: the level maps must cover my range's images.
    // Strictly-below levels only: the latest level's wrap entries may still
    // be settling (ring notes / finger notes are one round behind).
    for (std::int32_t k = 0; k < st.wave_k; ++k) {
      const std::uint64_t d = std::uint64_t{1} << k;
      if (!covers_mod(st.fwd_maps[k], st.lo + d, st.hi + d, n)) CHS_FAULT();
      if (!covers_mod(st.rev_maps[k], st.lo + n - d, st.hi + n - d, n)) {
        CHS_FAULT();
      }
    }
  }

  // --- 6. Silent-phase strictness ------------------------------------------
  if (st.phase == Phase::kDone) {
    if (st.wave_k != static_cast<std::int32_t>(num_waves_) - 1) CHS_FAULT();
    // After the prune settles the neighbor set must be *exactly* the
    // required structure: an extra neighbor is the paper's "neighbor it
    // would not have", a missing one is a severed finger or tree edge.
    if (st.done_pruned && !st.in_done_wave && now > st.phase_wave_deadline) {
      for (NodeId v : ctx.neighbors()) {
        if (!st.done_needed.count(v)) {
          ctx.state().fault_aux = v;
          CHS_FAULT();
        }
      }
      for (NodeId v : st.done_needed) {
        if (!ctx.is_neighbor(v)) {
          ctx.state().fault_aux = v;
          CHS_FAULT();
        }
      }
    }
  }

  return true;
}

void Protocol::reset_to_singleton(Ctx& ctx) {
  HostState& st = ctx.state();
  const std::uint64_t resets = st.resets;
  const int fault_line = st.fault_line;
  const NodeId fault_aux = st.fault_aux;
  const NodeId id = ctx.self();
  st = HostState{};
  st.fault_line = fault_line;
  st.fault_aux = fault_aux;
  st.id = id;
  st.phase = Phase::kCbt;
  st.cluster = id;
  st.lo = 0;
  st.hi = params_.n_guests;
  st.resets = resets + 1;
  // Stagger the first epoch so simultaneous resets don't stay in lockstep.
  st.epoch.timer = 1 + ctx.rng().next_below(params_.epoch_rounds());
  recompute_fragments(st);
  st.nbrs = ctx.neighbors();
}

}  // namespace chs::stabilizer
