// Fragment-granular PIF wave engine (§3.2 "Communication", DESIGN.md D2).
//
// A wave propagates down the guest Cbt and feeds back up. Hosts process it
// per *fragment* (maximal in-range subtree): on entry, the host schedules the
// internal sweep (one guest level per round in per-guest-hop mode) and
// forwards the propagate across each out-edge at the round the wave front
// reaches that edge's depth; the fragment completes when its internal leaves
// have been swept and every out-edge has fed back, no earlier than the
// per-level schedule allows. Feedback payloads aggregate kind-specific data
// (poll counts/candidates, ring contacts for MakeFinger 0).
#include <algorithm>

#include "stabilizer/protocol.hpp"
#include "util/log.hpp"

namespace chs::stabilizer {
namespace {

/// Weighted-reservoir merge of a candidate into the fragment aggregate so
/// the root's final sample is uniform over all external edges in the
/// cluster. Returns true if the incoming candidate was adopted.
bool merge_candidate(WaveAgg& into, const WaveAgg& from, util::Rng& rng) {
  const std::uint64_t total = into.cand_weight + from.cand_weight;
  bool adopted = false;
  if (from.cand_owner != kNone &&
      (into.cand_owner == kNone ||
       (total > 0 && rng.next_below(total) < from.cand_weight))) {
    into.cand_owner = from.cand_owner;
    into.cand_foreign = from.cand_foreign;
    adopted = true;
  }
  into.cand_weight = total;
  return adopted;
}

}  // namespace

void Protocol::start_wave(Ctx& ctx, WaveId id) {
  HostState& st = ctx.state();
  CHS_DCHECK(st.is_root());
  WaveMeta meta{id, st.cluster};
  st.waves.erase(id);  // fresh instance
  process_wave_entry(ctx, meta, guest_root());
}

void Protocol::handle_wave_down(Ctx& ctx, const MWaveDown& m, NodeId from) {
  HostState& st = ctx.state();
  // Cluster / phase compatibility: polls belong to phase kCbt; MakeFinger and
  // Done waves to kChord (Done flips to kDone as it passes). Stale or foreign
  // waves are dropped; the sender's fragment will time out, which for build
  // waves surfaces as a detector fault — exactly the paper's behaviour when a
  // wave runs on a non-scaffolded configuration.
  if (m.meta.cluster != st.cluster) return;
  switch (m.meta.id.kind) {
    case WaveKind::kPoll:
      if (st.phase != Phase::kCbt || st.merge.stage != MergeStage::kNone) return;
      break;
    case WaveKind::kPhaseChord:
      if (st.phase != Phase::kCbt && st.phase != Phase::kChord) return;
      break;
    case WaveKind::kMakeFinger:
      if (st.phase != Phase::kChord) return;
      break;
    case WaveKind::kDone:
      if (st.phase != Phase::kChord && st.phase != Phase::kDone) return;
      break;
  }
  (void)from;
  process_wave_entry(ctx, m.meta, m.entry);
}

void Protocol::process_wave_entry(Ctx& ctx, const WaveMeta& meta, GuestId entry) {
  HostState& st = ctx.state();
  // Locate the fragment; a mismatch means the sender's picture of my range
  // is stale — drop and let budgets handle it.
  const topology::Cbt::Fragment* frag = nullptr;
  for (const auto& f : st.frags) {
    if (f.entry == entry) {
      frag = &f;
      break;
    }
  }
  if (frag == nullptr) return;

  auto& ws = st.waves[meta.id];
  if (ws.frags.empty()) ws.started_round = ctx.round();
  FragWave& fw = ws.frags[entry];
  if (fw.entered) return;  // duplicate propagate
  fw.entered = true;

  if (!ws.propagate_applied) {
    ws.propagate_applied = true;
    apply_propagate_action(ctx, meta);
  }

  const bool paced = params_.per_guest_hop;
  const std::uint64_t internal_delay =
      paced ? 2ull * frag->max_internal_rel_depth : 0;
  fw.internal_ready = ctx.round() + internal_delay;
  fw.ready_round = fw.internal_ready;
  fw.waiting_ext = static_cast<std::uint32_t>(frag->out_edges.size());

  for (const auto& oe : frag->out_edges) {
    const std::uint64_t fwd_delay = paced ? oe.rel_depth : 0;
    if (fwd_delay == 0) {
      handle_wave_fwd(ctx, MWaveFwd{meta, oe.child_pos});
    } else {
      ctx.hold(MWaveFwd{meta, oe.child_pos}, fwd_delay);
    }
  }
  if (internal_delay > 0) {
    ctx.hold(MWaveTick{meta, entry}, internal_delay);
  }
  try_complete_fragment(ctx, meta, entry);
}

void Protocol::handle_wave_fwd(Ctx& ctx, const MWaveFwd& m) {
  HostState& st = ctx.state();
  auto it = st.boundary_host.find(m.child_pos);
  if (it == st.boundary_host.end()) return;  // range changed meanwhile
  if (!ctx.is_neighbor(it->second)) return;
  ctx.send(it->second, MWaveDown{m.meta, m.child_pos});
}

void Protocol::handle_wave_up(Ctx& ctx, const MWaveUp& m, NodeId from) {
  HostState& st = ctx.state();
  (void)from;
  auto wit = st.waves.find(m.meta.id);
  if (wit == st.waves.end()) return;
  auto eit = st.out_edge_to_entry.find(m.child_pos);
  if (eit == st.out_edge_to_entry.end()) return;
  const GuestId entry = eit->second;
  auto fit = wit->second.frags.find(entry);
  if (fit == wit->second.frags.end() || !fit->second.entered ||
      fit->second.completed) {
    return;
  }
  FragWave& fw = fit->second;
  if (fw.waiting_ext == 0) return;  // duplicate feedback

  fw.agg.ok = fw.agg.ok && m.agg.ok;
  fw.agg.ext_count += m.agg.ext_count;
  if (m.agg.min_contact != kNone) fw.agg.min_contact = m.agg.min_contact;
  if (m.agg.max_contact != kNone) fw.agg.max_contact = m.agg.max_contact;
  if (merge_candidate(fw.agg, m.agg, ctx.rng())) {
    fw.cand_via_child = m.child_pos;  // FollowGo retraces through this edge
  }
  --fw.waiting_ext;

  std::uint64_t climb = 0;
  if (params_.per_guest_hop) {
    // The out-edge's parent sits at rel_depth below the entry; feedback must
    // climb back up one level per round.
    for (const auto& f : st.frags) {
      if (f.entry != entry) continue;
      for (const auto& oe : f.out_edges) {
        if (oe.child_pos == m.child_pos) climb = oe.rel_depth;
      }
    }
  }
  fw.ready_round = std::max(fw.ready_round, ctx.round() + climb);
  if (climb > 0) ctx.hold(MWaveTick{m.meta, entry}, climb);
  try_complete_fragment(ctx, m.meta, entry);
}

void Protocol::handle_wave_tick(Ctx& ctx, const MWaveTick& m) {
  try_complete_fragment(ctx, m.meta, m.entry);
}

void Protocol::try_complete_fragment(Ctx& ctx, const WaveMeta& meta,
                                     GuestId entry) {
  HostState& st = ctx.state();
  auto wit = st.waves.find(meta.id);
  if (wit == st.waves.end()) return;
  auto fit = wit->second.frags.find(entry);
  if (fit == wit->second.frags.end()) return;
  FragWave& fw = fit->second;
  if (!fw.entered || fw.completed) return;
  if (fw.waiting_ext > 0) return;
  if (ctx.round() < fw.ready_round || ctx.round() < fw.internal_ready) return;
  fragment_completed(ctx, meta, entry);
}

void Protocol::fragment_completed(Ctx& ctx, const WaveMeta& meta, GuestId entry) {
  HostState& st = ctx.state();
  WaveState& ws = st.waves[meta.id];
  FragWave& fw = ws.frags[entry];
  fw.completed = true;
  ++ws.frags_completed;

  // Kind-specific own contributions, attributed to a deterministic fragment
  // so they are counted exactly once per host.
  if (meta.id.kind == WaveKind::kPoll && entry == topmost_entry(st)) {
    const auto& externals = external_neighbors(ctx);
    fw.agg.ext_count += externals.size();
    if (!externals.empty()) {
      const NodeId pick = externals[ctx.rng().next_below(externals.size())];
      WaveAgg own;
      own.cand_owner = st.id;
      own.cand_foreign = pick;
      own.cand_weight = externals.size();
      if (merge_candidate(fw.agg, own, ctx.rng())) {
        fw.cand_via_child = kNone;  // candidate is my own external edge
      }
    }
  }
  if (meta.id.kind == WaveKind::kMakeFinger && meta.id.k == 0) {
    if (st.lo == 0 && entry == entry_of(st, 0)) fw.agg.min_contact = st.id;
    if (st.hi == params_.n_guests && entry == entry_of(st, params_.n_guests - 1)) {
      fw.agg.max_contact = st.id;
    }
  }
  // The feedback below must not read through `fw`: apply_range_actions can
  // reset the host to a singleton (wiping st.waves under the reference), and
  // range actions that start follow-up waves insert into the flat tables.
  const WaveAgg agg = fw.agg;

  // Per-host feedback actions once every fragment of this wave completed.
  if (!ws.range_actions_done && ws.frags_completed == st.frags.size()) {
    ws.range_actions_done = true;
    apply_range_actions(ctx, meta);
  }

  auto pit = st.parent_host.find(entry);
  if (pit != st.parent_host.end()) {
    const NodeId parent = pit->second;
    if (ctx.is_neighbor(parent)) {
      // Chain ring contacts: make sure the parent can keep forwarding them.
      for (NodeId contact : {agg.min_contact, agg.max_contact}) {
        if (contact != kNone && contact != st.id && contact != parent &&
            ctx.is_neighbor(contact)) {
          ctx.introduce(parent, contact, "waves:0");
        }
      }
      ctx.send(parent, MWaveUp{meta, entry, agg});
    }
    return;
  }
  // No parent: this is the guest-root fragment — wave complete at the root.
  if (entry == guest_root()) {
    wave_completed_at_root(ctx, meta, agg);
  }
}

void Protocol::apply_propagate_action(Ctx& ctx, const WaveMeta& meta) {
  HostState& st = ctx.state();
  switch (meta.id.kind) {
    case WaveKind::kPoll:
      break;
    case WaveKind::kPhaseChord:
      if (st.phase == Phase::kCbt) {
        st.phase = Phase::kChord;
        st.epoch = EpochFsm{};
        st.wave_k = -1;
        st.active_wave_k = -1;
        st.fwd_maps.assign(num_waves_, {});
        st.rev_maps.assign(num_waves_, {});
        st.chord_next_wave = 0;
        st.chord_gap_timer = 0;
        st.in_phase_wave = true;
        st.phase_wave_deadline = ctx.round() + params_.wave_budget_rounds();
      }
      break;
    case WaveKind::kMakeFinger:
      // Paper, Algorithm 1 line 2/10: LastWave := k. A wave index that is not
      // exactly the next expected one means the configuration is not a
      // scaffolded-Chord one — detector resets us (handled in check_local via
      // the active_wave bookkeeping below).
      st.active_wave_k = meta.id.k;
      st.active_wave_deadline = ctx.round() + params_.wave_budget_rounds();
      break;
    case WaveKind::kDone:
      if (st.phase == Phase::kChord) {
        st.phase = Phase::kDone;
        st.in_done_wave = true;
        st.phase_wave_deadline = ctx.round() + params_.wave_budget_rounds();
      }
      break;
  }
}

void Protocol::apply_range_actions(Ctx& ctx, const WaveMeta& meta) {
  switch (meta.id.kind) {
    case WaveKind::kPoll:
      break;
    case WaveKind::kPhaseChord:
      // in_phase_wave stays set until its deadline: neighbors deeper in the
      // tree may not have seen the propagate yet, and the phase-mismatch
      // tolerance must cover the whole wave, not just my own feedback.
      break;
    case WaveKind::kMakeFinger:
      make_finger_actions(ctx, meta.id.k);
      break;
    case WaveKind::kDone:
      apply_done_prune(ctx);
      break;
  }
}

void Protocol::wave_completed_at_root(Ctx& ctx, const WaveMeta& meta,
                                      const WaveAgg& agg) {
  HostState& st = ctx.state();
  switch (meta.id.kind) {
    case WaveKind::kPoll:
      poll_completed(ctx, agg);
      break;
    case WaveKind::kPhaseChord:
      st.chord_next_wave = 0;
      st.chord_gap_timer = params_.grace_rounds();
      break;
    case WaveKind::kMakeFinger: {
      if (meta.id.k == 0) {
        // Ring closure: connect the hosts of guests 0 and N-1 (§4.3: "edges
        // to guest nodes 0 and N-1 are forwarded up the tree ... allowing the
        // root of the tree to connect them").
        const NodeId mn = agg.min_contact, mx = agg.max_contact;
        const bool mn_ok = mn == st.id || ctx.is_neighbor(mn);
        const bool mx_ok = mx == st.id || ctx.is_neighbor(mx);
        if (mn != kNone && mx != kNone && mn_ok && mx_ok) {
          if (mn != mx && mn != st.id && mx != st.id) {
            ctx.introduce(mn, mx, "waves:1");
          } else if (mn != mx) {
            ctx.introduce(mn == st.id ? mx : mn, st.id, "waves:2");
          }
          const MRingNote note{mn, mx};
          if (mn == st.id) {
            handle_ring_note(ctx, note);
          } else if (ctx.is_neighbor(mn)) {
            ctx.send(mn, note);
          }
          if (mx != mn) {
            if (mx == st.id) {
              handle_ring_note(ctx, note);
            } else if (ctx.is_neighbor(mx)) {
              ctx.send(mx, note);
            }
          }
        }
      }
      st.chord_next_wave = meta.id.k + 1;
      st.chord_gap_timer = params_.grace_rounds();
      break;
    }
    case WaveKind::kDone:
      break;
  }
}

void Protocol::gc_waves(Ctx& ctx) {
  HostState& st = ctx.state();
  const std::uint64_t budget = params_.wave_budget_rounds() + 4;
  for (auto it = st.waves.begin(); it != st.waves.end();) {
    const bool poll = it->first.kind == WaveKind::kPoll;
    // Poll states are kept a full epoch for the FollowGo retrace.
    const std::uint64_t ttl = poll ? params_.epoch_rounds() + 4 : budget;
    if (ctx.round() > it->second.started_round + ttl) {
      it = st.waves.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace chs::stabilizer
