// Protocol glue: per-round step ordering, message dispatch, fragment caches,
// edge classification/hygiene, and the sim::Engine interface.
#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "stabilizer/protocol.hpp"
#include "util/log.hpp"

namespace chs::stabilizer {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kCbt: return "CBT";
    case Phase::kChord: return "CHORD";
    case Phase::kDone: return "DONE";
  }
  return "?";
}

const char* wave_kind_name(WaveKind k) {
  switch (k) {
    case WaveKind::kPoll: return "poll";
    case WaveKind::kPhaseChord: return "phase-chord";
    case WaveKind::kMakeFinger: return "make-finger";
    case WaveKind::kDone: return "done";
  }
  return "?";
}

const char* epoch_role_name(EpochRole r) {
  switch (r) {
    case EpochRole::kIdle: return "idle";
    case EpochRole::kPolling: return "polling";
    case EpochRole::kFollowWait: return "follow-wait";
    case EpochRole::kLeadCollect: return "lead-collect";
  }
  return "?";
}

const char* merge_stage_name(MergeStage s) {
  switch (s) {
    case MergeStage::kNone: return "none";
    case MergeStage::kProposed: return "proposed";
    case MergeStage::kZip: return "zip";
    case MergeStage::kCommitWait: return "commit-wait";
  }
  return "?";
}

Protocol::Protocol(Params params)
    : params_(std::move(params)),
      cbt_(params_.n_guests),
      num_waves_(params_.target.num_waves(params_.n_guests)) {
  CHS_CHECK_MSG(params_.n_guests >= 2, "need at least two guests");
  CHS_CHECK_MSG(num_waves_ >= 1 && num_waves_ <= util::ceil_log2(params_.n_guests),
                "target wave count out of range");
}

void Protocol::set_target(topology::TargetSpec target) {
  params_.target = std::move(target);
  num_waves_ = params_.target.num_waves(params_.n_guests);
  CHS_CHECK_MSG(num_waves_ >= 1 && num_waves_ <= util::ceil_log2(params_.n_guests),
                "target wave count out of range");
}

void Protocol::init_node(NodeId id, HostState& st, util::Rng& rng) {
  CHS_CHECK_MSG(id < params_.n_guests, "host id outside guest space");
  st = HostState{};
  st.id = id;
  st.phase = Phase::kCbt;
  st.cluster = id;
  st.lo = 0;
  st.hi = params_.n_guests;
  st.epoch.timer = 1 + rng.next_below(params_.epoch_rounds());
  recompute_fragments(st);
}

void Protocol::publish(const HostState& st, PublicState& pub) {
  pub.id = st.id;
  pub.phase = st.phase;
  pub.cluster = st.cluster;
  pub.merging_with =
      st.merge.stage == MergeStage::kNone ? kNone : st.merge.peer_cluster;
  pub.lo = st.lo;
  pub.hi = st.hi;
  pub.succ = st.succ;
  pub.pred = st.pred;
  pub.wave_k = st.wave_k;
  pub.active_wave_k = st.active_wave_k;
  pub.in_phase_wave = st.in_phase_wave;
  pub.in_done_wave = st.in_done_wave;
  pub.nbrs = st.nbrs;
  structural_neighbors(st, pub.structural);

  if (behavior_of(st.id) == adversary::BehaviorKind::kLiar) {
    // Snapshot liar: advertise a stale-looking singleton configuration —
    // wrong cluster, the whole guest range, severed ring pointers, no wave
    // or merge activity — regardless of actual internal state. The edge
    // fields (nbrs, structural via considers_structural) stay truthful:
    // lying there would trip the bilateral edge-hygiene rule on *correct*
    // neighbors and physically disconnect them, converting a containable
    // decision-level lie into a genuine I1 break (see adversary/behavior.hpp).
    pub.phase = Phase::kCbt;
    pub.cluster = st.id;
    pub.merging_with = kNone;
    pub.lo = 0;
    pub.hi = params_.n_guests;
    pub.succ = kNone;
    pub.pred = kNone;
    pub.wave_k = -1;
    pub.active_wave_k = -1;
    pub.in_phase_wave = false;
    pub.in_done_wave = false;
  }
}

void Protocol::recompute_fragments(HostState& st) const {
  st.frags = cbt_.fragments(st.lo, st.hi);
  st.frags_lo = st.lo;
  st.frags_hi = st.hi;
  st.out_edge_to_entry.clear();
  for (const auto& f : st.frags) {
    for (const auto& oe : f.out_edges) {
      st.out_edge_to_entry[oe.child_pos] = f.entry;
    }
  }
}

GuestId Protocol::entry_of(const HostState& st, GuestId pos) const {
  CHS_DCHECK(pos >= st.lo && pos < st.hi);
  GuestId cur = pos;
  while (true) {
    const auto p = cbt_.parent(cur);
    if (!p || *p < st.lo || *p >= st.hi) return cur;
    cur = *p;
  }
}

GuestId Protocol::topmost_entry(const HostState& st) const {
  CHS_DCHECK(!st.frags.empty());
  GuestId best = st.frags.front().entry;
  std::uint32_t best_depth = st.frags.front().entry_depth;
  for (const auto& f : st.frags) {
    if (f.entry_depth < best_depth) {
      best_depth = f.entry_depth;
      best = f.entry;
    }
  }
  return best;
}

void Protocol::structural_neighbors(const HostState& st,
                                    std::vector<NodeId>& out) const {
  out.clear();
  out.reserve(st.boundary_host.size() + st.parent_host.size() + 2);
  for (const auto& [pos, host] : st.boundary_host) {
    (void)pos;
    out.push_back(host);
  }
  for (const auto& [pos, host] : st.parent_host) {
    (void)pos;
    out.push_back(host);
  }
  if (st.succ != kNone) out.push_back(st.succ);
  if (st.pred != kNone) out.push_back(st.pred);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

const std::vector<NodeId>& Protocol::external_neighbors(Ctx& ctx) const {
  thread_local std::vector<NodeId> out;  // per-call scratch (DESIGN.md D6)
  out.clear();
  const HostState& st = ctx.state();
  const auto& nbrs = ctx.neighbors();
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    if (ctx.view_at(k)->cluster != st.cluster) out.push_back(nbrs[k]);
  }
  return out;
}

void Protocol::classify_and_clean_edges(Ctx& ctx) {
  HostState& st = ctx.state();
  if (st.phase != Phase::kCbt) return;  // DONE prune handles the rest
  if (st.merge.stage != MergeStage::kNone) return;
  // Per-call scratch (DESIGN.md D6), rewritten below before any read.
  thread_local std::vector<NodeId> structural;
  thread_local std::vector<std::pair<NodeId, std::span<const NodeId>>>
      witnesses;
  structural_neighbors(st, structural);
  bool witnesses_ready = false;
  const auto& nbrs = ctx.neighbors();
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    const NodeId v = nbrs[k];
    if (std::binary_search(structural.begin(), structural.end(), v)) continue;
    const auto view = ctx.view_at(k);
    if (view->cluster != st.cluster) continue;      // genuine external edge
    if (view->merging_with != kNone) continue;      // peer busy; wait
    // Bilateral rule: an edge is junk only when *neither* end counts it as
    // structural. The peer's references may be mid-flood (it has not seen
    // the merge commit this host already applied) or a fault its own
    // detector will repair; severing the edge first would manufacture the
    // dangling-reference configuration (I4) the protocol is supposed to
    // fix. Found by the invariant oracle: a host applied a merge commit
    // and, in the same step, deleted the edges its pre-commit children
    // still referenced. The view is one round stale, which is safe — a
    // reference to this host can only appear via a commit this host's own
    // new structure mirrors, or via external corruption, which republishes
    // before the next round (DESIGN.md D4).
    if (view->considers_structural(st.id)) continue;
    // Connectivity certificate: some structural neighbor w currently
    // reports v as its own neighbor, so dropping (me, v) leaves the path
    // me-w-v. The views are one round stale, so the certificate alone is
    // NOT safe: a concurrent churn event or another node's deletion can
    // remove a certificate edge in the same round, and committing this
    // delete anyway can isolate v (fuzzer repro:
    // examples/scenarios/cert-race-disconnect). The witness w is therefore
    // sent with the disconnect request and the engine re-validates the
    // path me-w-v against the live graph at apply time, dropping the
    // delete if it has vanished.
    //
    // The candidate witnesses are the structural neighbors that are
    // neighbors (both lists sorted), with their views, resolved at the
    // first junk edge. v is not structural, so no witness is v itself.
    if (!witnesses_ready) {
      witnesses.clear();
      std::size_t i = 0, j = 0;
      while (i < structural.size() && j < nbrs.size()) {
        if (structural[i] < nbrs[j]) {
          ++i;
        } else if (nbrs[j] < structural[i]) {
          ++j;
        } else {
          witnesses.emplace_back(nbrs[j], ctx.view_at(j)->nbrs);
          ++i;
          ++j;
        }
      }
      witnesses_ready = true;
    }
    for (const auto& [w, w_nbrs] : witnesses) {
      if (std::binary_search(w_nbrs.begin(), w_nbrs.end(), v)) {
        ctx.disconnect(v, "protocol-d0", w);
        break;
      }
    }
  }
}

void Protocol::step(Ctx& ctx) {
  if (frozen_) return;  // stalled: a perfect no-op, messages in flight drop
  step_impl(ctx);
  schedule_wakeups(ctx);
}

void Protocol::step_impl(Ctx& ctx) {
  HostState& st = ctx.state();

  // Phase-wave tolerance windows expire on their own; a genuinely stalled
  // wave then surfaces as a raw phase mismatch between neighbors.
  if ((st.in_phase_wave || st.in_done_wave) &&
      ctx.round() > st.phase_wave_deadline) {
    st.in_phase_wave = false;
    st.in_done_wave = false;
  }

  if (!check_local(ctx)) {
    reset_to_singleton(ctx);
    return;
  }

  // Dispatch the inbox in variant-order priority (control before data), then
  // by arrival. A reset mid-dispatch invalidates the remaining messages.
  // The order is a stable insertion sort into per-call scratch (DESIGN.md
  // D6); inboxes are short, so it beats a sort that allocates a buffer.
  thread_local std::vector<const sim::Envelope<Message>*> order;
  order.clear();
  for (const auto& env : ctx.inbox()) {
    auto at = order.end();
    while (at != order.begin() && (*(at - 1))->msg.index() > env.msg.index()) {
      --at;
    }
    order.insert(at, &env);
  }
  const std::uint64_t resets_before = st.resets;
  for (const auto* env : order) {
    dispatch(ctx, *env);
    if (st.resets != resets_before) break;
  }
  if (st.resets == resets_before) {
    epoch_tick(ctx);
    chord_sequencer(ctx);
    gc_waves(ctx);
    classify_and_clean_edges(ctx);
  }
  st.nbrs = ctx.neighbors();
}

// The activation contract behind StepMode::kActiveSet. A node not in the
// active set must behave as a perfect no-op if it *had* been stepped; the
// engine already re-activates on deliveries, incident topology deltas, and
// changed neighbor snapshots, so what remains is everything step_impl does
// spontaneously as ctx.round() advances:
//   * per-round countdowns that tick only while stepped (epoch timer on a
//     cluster root, the chord sequencer's gap timer, the demoted-root epoch
//     cleanup) — keep ourselves scheduled every round while they run;
//   * absolute deadlines read by check_local and the tolerance-window
//     expiry — wake the round after each deadline passes;
//   * wave GC — wake when the earliest wave's TTL expires.
void Protocol::schedule_wakeups(Ctx& ctx) const {
  const HostState& st = ctx.state();
  const std::uint64_t now = ctx.round();
  const auto wake_at = [&](std::uint64_t due) {
    if (due > now) ctx.request_wakeup(due - now);
  };

  if (st.phase == Phase::kCbt) {
    if (st.is_root() && st.merge.stage == MergeStage::kNone) {
      ctx.request_wakeup(1);  // epoch timer ticks every stepped round
    }
    if (!st.is_root() && st.epoch.role != EpochRole::kIdle) {
      ctx.request_wakeup(1);  // demoted-root cleanup runs next round
    }
  }
  if (st.phase == Phase::kChord && st.is_root() && st.chord_gap_timer > 0) {
    ctx.request_wakeup(1);
  }

  if (st.merge.stage != MergeStage::kNone) wake_at(st.merge.deadline + 1);
  if (st.active_wave_k != -1) wake_at(st.active_wave_deadline + 1);
  if (st.in_phase_wave || st.in_done_wave) wake_at(st.phase_wave_deadline + 1);
  if (now < st.recent_until) wake_at(st.recent_until);
  if (st.phase == Phase::kDone && st.done_pruned) {
    wake_at(st.phase_wave_deadline + 1);  // strict neighbor check arms then
  }

  if (!st.waves.empty()) {
    const std::uint64_t budget = params_.wave_budget_rounds() + 4;
    std::uint64_t due = ~std::uint64_t{0};
    for (const auto& [id, ws] : st.waves) {
      const std::uint64_t ttl =
          id.kind == WaveKind::kPoll ? params_.epoch_rounds() + 4 : budget;
      due = std::min(due, ws.started_round + ttl + 1);
    }
    wake_at(due);
  }
}

void Protocol::dispatch(Ctx& ctx, const sim::Envelope<Message>& env) {
  const NodeId from = env.from;
  // Selfish merge refuser (DESIGN.md D11): inbound merge-protocol traffic is
  // silently ignored, so this node's cluster never completes a match it did
  // not initiate. Deterministic (no RNG, no state) and applied before any
  // handler runs, so the drop is identical at any worker count.
  if (behavior_of(ctx.state().id) == adversary::BehaviorKind::kMergeRefuser &&
      (std::holds_alternative<MFollowGo>(env.msg) ||
       std::holds_alternative<MMergeReqHop>(env.msg) ||
       std::holds_alternative<MMatchGrant>(env.msg) ||
       std::holds_alternative<MMergePropose>(env.msg))) {
    return;
  }
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, MWaveDown>) {
          handle_wave_down(ctx, m, from);
        } else if constexpr (std::is_same_v<T, MWaveFwd>) {
          handle_wave_fwd(ctx, m);
        } else if constexpr (std::is_same_v<T, MWaveUp>) {
          handle_wave_up(ctx, m, from);
        } else if constexpr (std::is_same_v<T, MWaveTick>) {
          handle_wave_tick(ctx, m);
        } else if constexpr (std::is_same_v<T, MRingNote>) {
          handle_ring_note(ctx, m);
        } else if constexpr (std::is_same_v<T, MFingerNote>) {
          handle_finger_note(ctx, m, from);
        } else if constexpr (std::is_same_v<T, MFollowGo>) {
          handle_follow_go(ctx, m, from);
        } else if constexpr (std::is_same_v<T, MMergeReqHop>) {
          handle_merge_req_hop(ctx, m, from);
        } else if constexpr (std::is_same_v<T, MMatchGrant>) {
          handle_match_grant(ctx, m, from);
        } else if constexpr (std::is_same_v<T, MMergePropose>) {
          handle_merge_propose(ctx, m, from);
        } else if constexpr (std::is_same_v<T, MMergeAck>) {
          handle_merge_ack(ctx, m, from);
        } else if constexpr (std::is_same_v<T, MZipStart>) {
          handle_zip_start(ctx, m, from);
        } else if constexpr (std::is_same_v<T, MZipStep>) {
          handle_zip_step(ctx, m, from);
        } else if constexpr (std::is_same_v<T, MZipPhase2>) {
          handle_zip_phase2(ctx, m);
        } else if constexpr (std::is_same_v<T, MZipDone>) {
          handle_zip_done(ctx, m, from);
        } else {
          static_assert(std::is_same_v<T, MMergeCommit>,
                        "unhandled message type");
          handle_merge_commit(ctx, m, from);
        }
      },
      env.msg);
}

}  // namespace chs::stabilizer
