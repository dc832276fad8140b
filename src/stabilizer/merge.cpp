// Cluster merge via the interval zip (§3.2 "Merging", DESIGN.md D3).
//
// Two matched clusters A and B both host the full N-guest Cbt; merging means
// re-deciding, for every guest position, which member of A ∪ B hosts it. The
// zip resolves this pairwise down the tree: the *step* for subtree interval
// iv is an exchange between host_A(iv.mid()) and host_B(iv.mid()); the merged
// host of any guest g among the two candidates a, b is avatar::zip_winner
// (provably the predecessor over the union). A child subtree contained in
// both candidates' ranges with a uniform winner is *pruned* — resolved
// wholesale with no further messages — so a merge costs O((|A|+|B|) log N)
// messages and O(log N) levels at <= 3 rounds per level:
//
//   round ρ   : both candidates hold each other's ZipStep; each introduces
//               its own child candidate to the peer,
//   round ρ+1 : each introduces its child to the peer's child and sends it a
//               ZipStart naming its new peer,
//   round ρ+2 : the child candidates exchange ZipStep — next level begins.
//
// Every edge created here is either part of the merged cluster's structure
// (promoted into new_boundary/new_parent/succ/pred) or a transient that the
// redundant-edge hygiene deletes after commit. Completion feeds back along
// the step tree via ZipDone; the winner of the root step becomes the new
// cluster root and floods MergeCommit down the *new* tree, at which point
// every member atomically swaps in its pending structure.
#include <algorithm>

#include "avatar/range.hpp"
#include "stabilizer/protocol.hpp"
#include "util/log.hpp"

namespace chs::stabilizer {
namespace {
bool contained(const CbtInterval& iv, std::uint64_t lo, std::uint64_t hi) {
  return iv.lo >= lo && iv.hi <= hi;
}
}  // namespace

void Protocol::observe_peer_id(HostState& st, NodeId peer_id) {
  MergeFsm& f = st.merge;
  if (peer_id > st.id) {
    if (peer_id < f.new_hi) {
      f.new_hi = peer_id;
      f.new_succ = peer_id;
    }
  } else if (peer_id < st.id) {
    if (f.new_lo == 0 && st.id > 0) f.new_lo = st.id;
    if (f.new_pred == kNone || peer_id > f.new_pred) f.new_pred = peer_id;
  }
}

void Protocol::begin_zip(Ctx& ctx, NodeId peer_root, std::uint64_t nonce) {
  HostState& st = ctx.state();
  if (st.merge.stage == MergeStage::kZip) return;
  MergeFsm& f = st.merge;
  f.stage = MergeStage::kZip;
  f.peer_cluster = peer_root;
  f.nonce = nonce;
  f.deadline = ctx.round() + params_.merge_budget_rounds();
  f.new_lo = st.lo;
  f.new_hi = st.hi;
  f.new_succ = st.succ;
  f.new_pred = st.pred;
  // Root step over the whole guest space.
  const GuestId m0 = guest_root();
  ZipStep& s = f.steps[m0];
  s.iv = cbt_.whole();
  s.peer = peer_root;
  s.parent_winner = kNone;
  send_zip_step(ctx, m0);
}

void Protocol::join_zip(Ctx& ctx, NodeId peer_cluster, std::uint64_t nonce) {
  HostState& st = ctx.state();
  MergeFsm& f = st.merge;
  f.stage = MergeStage::kZip;
  f.peer_cluster = peer_cluster;
  f.nonce = nonce;
  f.deadline = ctx.round() + params_.merge_budget_rounds();
  f.new_lo = st.lo;
  f.new_hi = st.hi;
  f.new_succ = st.succ;
  f.new_pred = st.pred;
}

NodeId Protocol::child_candidate(const HostState& st, GuestId pos) const {
  if (pos >= st.lo && pos < st.hi) return st.id;
  auto it = st.boundary_host.find(pos);
  return it == st.boundary_host.end() ? kNone : it->second;
}

void Protocol::send_zip_step(Ctx& ctx, GuestId pos) {
  HostState& st = ctx.state();
  MergeFsm& f = st.merge;
  auto it = f.steps.find(pos);
  if (it == f.steps.end()) return;
  ZipStep& s = it->second;
  if (s.sent || s.peer == kNone || !ctx.is_neighbor(s.peer)) return;
  const CbtInterval l = s.iv.left(), r = s.iv.right();
  ctx.send(s.peer,
           MZipStep{f.nonce, s.iv, st.lo, st.hi,
                    l.empty() ? kNone : child_candidate(st, l.mid()),
                    r.empty() ? kNone : child_candidate(st, r.mid()),
                    s.parent_winner, st.cluster});
  s.sent = true;
}

void Protocol::handle_zip_start(Ctx& ctx, const MZipStart& m, NodeId from) {
  HostState& st = ctx.state();
  (void)from;
  if (st.phase != Phase::kCbt) return;
  if (st.merge.stage == MergeStage::kNone) {
    join_zip(ctx, m.peer_cluster, m.nonce);
  }
  MergeFsm& f = st.merge;
  if (f.nonce != m.nonce || f.stage != MergeStage::kZip) return;
  const GuestId pos = m.iv.mid();
  if (pos < st.lo || pos >= st.hi) return;  // not my candidacy — stale
  ZipStep& s = f.steps[pos];
  if (s.peer != kNone && s.peer != m.peer) return;  // conflicting step
  s.iv = m.iv;
  s.peer = m.peer;
  s.parent_winner = m.parent_winner;
  send_zip_step(ctx, pos);
  if (s.sent && s.have_peer && !s.resolved) resolve_step(ctx, pos);
}

void Protocol::handle_zip_step(Ctx& ctx, const MZipStep& m, NodeId from) {
  HostState& st = ctx.state();
  if (st.phase != Phase::kCbt) return;
  if (st.merge.stage == MergeStage::kProposed) {
    // I proposed and the peer's root step arrived before the ack: agreement.
    if (st.merge.nonce == m.nonce && st.merge.peer_cluster == from) {
      begin_zip(ctx, from, m.nonce);
    } else {
      return;
    }
  }
  if (st.merge.stage == MergeStage::kNone) {
    join_zip(ctx, m.my_cluster, m.nonce);
  }
  MergeFsm& f = st.merge;
  if (f.nonce != m.nonce || f.stage != MergeStage::kZip) return;
  const GuestId pos = m.iv.mid();
  if (pos < st.lo || pos >= st.hi) return;
  ZipStep& s = f.steps[pos];
  if (s.peer != kNone && s.peer != from) return;
  s.iv = m.iv;
  s.peer = from;
  if (s.parent_winner == kNone) s.parent_winner = m.parent_winner;
  s.have_peer = true;
  s.peer_lo = m.lo;
  s.peer_hi = m.hi;
  s.peer_child_left = m.child_left;
  s.peer_child_right = m.child_right;
  send_zip_step(ctx, pos);
  if (s.sent && !s.resolved) resolve_step(ctx, pos);
}

void Protocol::resolve_step(Ctx& ctx, GuestId pos) {
  HostState& st = ctx.state();
  MergeFsm& f = st.merge;
  ZipStep& s = f.steps[pos];
  if (!ctx.is_neighbor(s.peer)) {
    // The counterpart edge vanished between our exchange and this
    // resolution (possible under faults or asynchrony). Leave the step
    // unresolved; the merge budget will reset us if it never recovers.
    CHS_LOG_WARN(
        "zip step %llu at host %llu lost peer %llu sent=%d have=%d "
        "round=%llu",
        static_cast<unsigned long long>(pos),
        static_cast<unsigned long long>(st.id),
        static_cast<unsigned long long>(s.peer), int(s.sent), int(s.have_peer),
        static_cast<unsigned long long>(ctx.round()));
    return;
  }
  s.resolved = true;
  observe_peer_id(st, s.peer);

  // Creating child steps below inserts into f.steps, which may reallocate
  // the flat table and invalidate `s`; snapshot the parent step's fields
  // first and fold the waiting_done increments back in via a fresh lookup.
  const CbtInterval iv = s.iv;
  const NodeId peer = s.peer;
  const NodeId parent_win = s.parent_winner;
  const std::uint64_t peer_lo = s.peer_lo, peer_hi = s.peer_hi;
  const NodeId peer_child_left = s.peer_child_left;
  const NodeId peer_child_right = s.peer_child_right;

  const NodeId winner = avatar::zip_winner(pos, st.id, peer);
  if (winner == st.id && parent_win != kNone && parent_win != st.id) {
    f.new_parent[pos] = parent_win;
  }

  std::uint32_t waiting_add = 0;
  bool need_phase2 = false;
  for (const CbtInterval civ : {iv.left(), iv.right()}) {
    if (civ.empty()) continue;
    const GuestId cm = civ.mid();
    const NodeId mc = child_candidate(st, cm);
    const NodeId pc = (civ.lo < pos) ? peer_child_left : peer_child_right;
    if (mc == kNone || pc == kNone) {
      // Structure inconsistent with the claimed ranges: abort via detector.
      reset_to_singleton(ctx);
      return;
    }
    const bool same_participants = (mc == st.id && pc == peer);
    if (same_participants && contained(civ, st.lo, st.hi) &&
        contained(civ, peer_lo, peer_hi) &&
        avatar::zip_uniform_over(civ, st.id, peer)) {
      const NodeId w = avatar::zip_winner(civ.lo, st.id, peer);
      record_interval_outcome(ctx, civ, w, winner);
      continue;
    }
    if (winner == st.id) ++waiting_add;  // a real substep will report
    if (same_participants) {
      // Same pair continues one level down without introductions.
      ZipStep& cs = f.steps[cm];
      if (cs.peer == kNone) {
        cs.iv = civ;
        cs.peer = peer;
        cs.parent_winner = winner;
      }
      send_zip_step(ctx, cm);
      continue;
    }
    // Participant change: two-round introduction dance.
    if (mc != st.id && mc != peer && ctx.is_neighbor(mc)) {
      ctx.introduce(mc, peer, "merge:0");
    }
    need_phase2 = true;
  }
  if (waiting_add != 0) f.steps.find(pos)->second.waiting_done += waiting_add;
  if (need_phase2) ctx.hold(MZipPhase2{f.nonce, pos}, 1);
  maybe_report_done(ctx, pos);
}

void Protocol::handle_zip_phase2(Ctx& ctx, const MZipPhase2& m) {
  HostState& st = ctx.state();
  MergeFsm& f = st.merge;
  if (f.stage != MergeStage::kZip || f.nonce != m.nonce) return;
  auto it = f.steps.find(m.pos);
  if (it == f.steps.end() || !it->second.resolved) return;
  // Copy: starting child steps below inserts into f.steps and may
  // reallocate the flat table out from under a reference.
  const ZipStep s = it->second;
  const NodeId winner = avatar::zip_winner(m.pos, st.id, s.peer);

  bool retry = false;
  for (const CbtInterval civ : {s.iv.left(), s.iv.right()}) {
    if (civ.empty()) continue;
    const GuestId cm = civ.mid();
    const NodeId mc = child_candidate(st, cm);
    const NodeId pc =
        (civ.lo < m.pos) ? s.peer_child_left : s.peer_child_right;
    if (mc == kNone || pc == kNone) continue;
    if (mc == st.id && pc == s.peer) continue;  // handled at resolution
    if (mc == st.id) {
      // I am the child-side participant; the peer's child pc holds an edge
      // to me once the peer's own resolution round has executed. Under
      // message asynchrony the two resolutions are not simultaneous, so
      // retry until the introduction lands (the merge deadline bounds it).
      ZipStep& cs = f.steps[cm];
      if (cs.peer == kNone) {
        cs.iv = civ;
        cs.peer = pc;
        cs.parent_winner = winner;
      }
      if (pc != s.peer && !ctx.is_neighbor(pc) && !cs.sent) retry = true;
      send_zip_step(ctx, cm);
    } else {
      if (ctx.is_neighbor(mc)) {
        if (mc != pc) {
          if (ctx.is_neighbor(pc)) {
            ctx.introduce(mc, pc, "merge:1");
          } else {
            retry = true;
            continue;  // don't start the child yet; pc is not wired to us
          }
        }
        ctx.send(mc, MZipStart{f.nonce, civ, pc, f.peer_cluster, winner});
      }
    }
  }
  if (retry) ctx.hold(MZipPhase2{m.nonce, m.pos}, 1);
}

void Protocol::record_interval_outcome(Ctx& ctx, const CbtInterval& iv,
                                       NodeId winner, NodeId parent_winner) {
  HostState& st = ctx.state();
  MergeFsm& f = st.merge;
  if (winner == st.id) {
    if (parent_winner != st.id) f.new_parent[iv.mid()] = parent_winner;
  } else {
    if (parent_winner == st.id) f.new_boundary[iv.mid()] = winner;
  }
  (void)ctx;
}

void Protocol::maybe_report_done(Ctx& ctx, GuestId pos) {
  HostState& st = ctx.state();
  MergeFsm& f = st.merge;
  auto it = f.steps.find(pos);
  if (it == f.steps.end()) return;
  ZipStep& s = it->second;
  if (!s.resolved || s.waiting_done > 0 || s.done_reported) return;
  const NodeId winner = avatar::zip_winner(pos, st.id, s.peer);
  if (winner != st.id) return;  // the peer-side winner reports
  s.done_reported = true;
  if (s.parent_winner == kNone) {
    // Root step complete: I am the merged cluster's root.
    apply_commit(ctx, f.nonce, st.id);
    return;
  }
  if (s.parent_winner == st.id) {
    const auto pp = cbt_.parent(pos);
    if (pp) {
      auto pit = f.steps.find(*pp);
      if (pit != f.steps.end() && pit->second.waiting_done > 0) {
        --pit->second.waiting_done;
        maybe_report_done(ctx, *pp);
      }
    }
    return;
  }
  if (ctx.is_neighbor(s.parent_winner)) {
    ctx.send(s.parent_winner, MZipDone{f.nonce, pos});
  }
}

void Protocol::handle_zip_done(Ctx& ctx, const MZipDone& m, NodeId from) {
  HostState& st = ctx.state();
  MergeFsm& f = st.merge;
  if (f.stage != MergeStage::kZip || f.nonce != m.nonce) return;
  const auto pp = cbt_.parent(m.pos);
  if (!pp) return;
  auto it = f.steps.find(*pp);
  if (it == f.steps.end() || it->second.waiting_done == 0) return;
  // `from` won the child step at m.pos; if I won the parent step, the child
  // subtree's root becomes a boundary entry of mine.
  f.new_boundary[m.pos] = from;
  --it->second.waiting_done;
  maybe_report_done(ctx, *pp);
}

void Protocol::apply_commit(Ctx& ctx, std::uint64_t nonce, NodeId new_cluster) {
  HostState& st = ctx.state();
  MergeFsm& f = st.merge;
  if (f.stage == MergeStage::kNone || f.nonce != nonce || f.committed) return;
  f.committed = true;

  // Validate the accumulated structure against the forced geometry of the
  // new range; a gap means the zip was inconsistent — treat as a fault.
  util::FlatMap<GuestId, NodeId> boundary, parent;
  for (const auto& ce : cbt_.crossing_edges(f.new_lo, f.new_hi)) {
    if (!ce.child_inside) {
      auto bi = f.new_boundary.find(ce.child_pos);
      if (bi == f.new_boundary.end()) {
        auto old = st.boundary_host.find(ce.child_pos);
        if (old != st.boundary_host.end() && ctx.is_neighbor(old->second)) {
          // Crossing edge untouched by the zip (fully internal to the two
          // old ranges' unchanged overlap) — keep the old assignment.
          boundary[ce.child_pos] = old->second;
          continue;
        }
        reset_to_singleton(ctx);
        return;
      }
      boundary[ce.child_pos] = bi->second;
    } else {
      auto pi = f.new_parent.find(ce.child_pos);
      if (pi == f.new_parent.end()) {
        auto old = st.parent_host.find(ce.child_pos);
        if (old != st.parent_host.end() && ctx.is_neighbor(old->second)) {
          parent[ce.child_pos] = old->second;
          continue;
        }
        reset_to_singleton(ctx);
        return;
      }
      parent[ce.child_pos] = pi->second;
    }
  }

  // A zip peer may have churned away between its ZipStep and this commit:
  // its edges died with it, and adopting a structural reference without a
  // backing edge would have this host manufacture the dangling-reference
  // fault (I4) a round before any detector can fire — found by the
  // invariant oracle fuzzing churn into mid-merge windows. A dead
  // reference in the pending structure is the same zip-inconsistency
  // fault as a geometry gap: reset and let stabilization redo the merge.
  for (const auto& [pos, host] : boundary) {
    (void)pos;
    if (!ctx.is_neighbor(host)) {
      reset_to_singleton(ctx);
      return;
    }
  }
  for (const auto& [pos, host] : parent) {
    (void)pos;
    if (!ctx.is_neighbor(host)) {
      reset_to_singleton(ctx);
      return;
    }
  }
  if (f.new_hi != params_.n_guests && f.new_succ != kNone &&
      !ctx.is_neighbor(f.new_succ)) {
    reset_to_singleton(ctx);
    return;
  }
  if (f.new_lo != 0 && f.new_pred != kNone && !ctx.is_neighbor(f.new_pred)) {
    reset_to_singleton(ctx);
    return;
  }

  const NodeId old_cluster = st.cluster;
  st.lo = f.new_lo;
  st.hi = f.new_hi;
  st.succ = (st.hi == params_.n_guests) ? kNone : f.new_succ;
  st.pred = (st.lo == 0) ? kNone : f.new_pred;
  st.boundary_host = std::move(boundary);
  st.parent_host = std::move(parent);
  st.cluster = new_cluster;
  st.recent_a = old_cluster;
  st.recent_b = f.peer_cluster;
  st.recent_until = ctx.round() + params_.merge_budget_rounds();
  recompute_fragments(st);
  st.waves.clear();
  st.epoch = EpochFsm{};
  if (st.is_root()) {
    // Stagger the first epoch of the merged cluster a little.
    st.epoch.timer = 2 + ctx.rng().next_below(params_.log_n_plus_1());
  }

  // Flood the commit down the new tree.
  std::vector<NodeId> targets;
  for (const auto& [pos, host] : st.boundary_host) {
    (void)pos;
    if (host != st.id && ctx.is_neighbor(host)) targets.push_back(host);
  }
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  for (NodeId t : targets) ctx.send(t, MMergeCommit{nonce, new_cluster});

  st.merge.clear();
}

void Protocol::handle_merge_commit(Ctx& ctx, const MMergeCommit& m, NodeId from) {
  HostState& st = ctx.state();
  (void)from;
  if (st.merge.stage != MergeStage::kZip) return;  // duplicate or stale
  apply_commit(ctx, m.nonce, m.new_cluster);
}

}  // namespace chs::stabilizer
