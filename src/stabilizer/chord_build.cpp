// Algorithm 1: building the target topology over the Cbt scaffold (§4.3).
//
// The cluster root serializes PIF(MakeFinger(k)) waves for k = 0 .. W-1.
// Wave 0 realizes every guest's 0th finger: inside a host the ring edges are
// free; across hosts the (hi-1, hi) edges coincide with the succ pointers the
// merge maintained; the single wrap edge (N-1, 0) is closed by the root,
// which receives contacts for the hosts of guests 0 and N-1 with the
// feedback wave and connects them ("forwarded up the tree during the
// feedback wave, allowing the root of the tree to connect them").
//
// Wave k >= 1 uses the inductive step: if b is the (k-1)-finger of c0 and c1
// is the (k-1)-finger of b, then c1 is the k-finger of c0. Host-level this
// means: for every run of my guests with constant level-(k-1) neighbor hosts
// (hA owning range-2^(k-1), hB owning range+2^(k-1)), introduce hA to hB and
// send both a FingerNote describing the guest interval the new host edge
// realizes — which is exactly what they need to play wave k+1. A coverage
// gap in the level-(k-1) maps means the configuration was not a scaffolded
// Chord one; per the paper (Algorithm 1 line 7/14) the host falls back to
// phase CBT.
#include <algorithm>

#include "stabilizer/protocol.hpp"
#include "util/log.hpp"

namespace chs::stabilizer {

void Protocol::chord_sequencer(Ctx& ctx) {
  HostState& st = ctx.state();
  if (st.phase != Phase::kChord || !st.is_root()) return;
  if (st.chord_gap_timer == 0) return;
  if (--st.chord_gap_timer > 0) return;
  const auto w = static_cast<std::int32_t>(num_waves_);
  if (st.chord_next_wave < w) {
    start_wave(ctx, WaveId{WaveKind::kMakeFinger,
                           static_cast<std::uint64_t>(st.chord_next_wave),
                           st.chord_next_wave});
  } else if (st.chord_next_wave == w) {
    start_wave(ctx, WaveId{WaveKind::kDone, 0, 0});
    st.chord_next_wave = w + 1;  // sentinel: sequence finished
  }
}

void Protocol::assign_mod(util::IntervalMap<NodeId>& map, std::uint64_t tlo,
                          std::uint64_t thi, NodeId host, std::uint64_t n) {
  if (tlo >= thi) return;
  CHS_DCHECK(thi - tlo <= n);
  if (tlo >= n) {
    tlo -= n;
    thi -= n;
  }
  if (thi <= n) {
    map.assign(tlo, thi, host);
  } else {
    map.assign(tlo, n, host);
    map.assign(0, thi - n, host);
  }
}

void Protocol::make_finger_actions(Ctx& ctx, std::int32_t k) {
  HostState& st = ctx.state();
  const std::uint64_t n = params_.n_guests;
  if (st.fwd_maps.size() != num_waves_) {
    st.fwd_maps.assign(num_waves_, {});
    st.rev_maps.assign(num_waves_, {});
  }
  if (k == 0) {
    // Finger 0 host edges already exist (same host or succ/pred); only the
    // level-0 maps need populating. The wrap entries arrive via MRingNote.
    if (st.lo + 1 < st.hi) st.fwd_maps[0].assign(st.lo + 1, st.hi, st.id);
    if (st.hi < n) {
      if (st.succ == kNone || !ctx.is_neighbor(st.succ)) {
        reset_to_singleton(ctx);
        return;
      }
      st.fwd_maps[0].assign(st.hi, st.hi + 1, st.succ);
    }
    if (st.lo + 1 < st.hi) st.rev_maps[0].assign(st.lo, st.hi - 1, st.id);
    if (st.lo > 0) {
      if (st.pred == kNone || !ctx.is_neighbor(st.pred)) {
        reset_to_singleton(ctx);
        return;
      }
      st.rev_maps[0].assign(st.lo - 1, st.lo, st.pred);
    }
    // Single-host network closes its own ring.
    if (st.lo == 0 && st.hi == n) {
      st.fwd_maps[0].assign(0, 1, st.id);
      st.rev_maps[0].assign(n - 1, n, st.id);
    }
  } else {
    const std::uint64_t d = std::uint64_t{1} << (k - 1);
    std::uint64_t a = st.lo;
    while (a < st.hi) {
      const std::uint64_t ra = (a + n - d) % n;
      const std::uint64_t fa = (a + d) % n;
      const auto* ea = st.rev_maps[k - 1].find_entry(ra);
      const auto* eb = st.fwd_maps[k - 1].find_entry(fa);
      if (ea == nullptr || eb == nullptr) {
        // Level-(k-1) coverage gap: not a scaffolded Chord configuration.
        reset_to_singleton(ctx);
        return;
      }
      const NodeId ha = ea->value;
      const NodeId hb = eb->value;
      const std::uint64_t len =
          std::min({st.hi - a, ea->hi - ra, eb->hi - fa});
      CHS_DCHECK(len >= 1);
      const std::uint64_t s0 = a, s1 = a + len;
      const bool ha_ok = ha == st.id || ctx.is_neighbor(ha);
      const bool hb_ok = hb == st.id || ctx.is_neighbor(hb);
      if (!ha_ok || !hb_ok) {
        reset_to_singleton(ctx);
        return;
      }
      // The new guest edges are (c0, c1) = (a - d, a + d) for a in [s0, s1):
      // c1 = c0 + 2^k. hA hosts the c0 run, hB the c1 run.
      if (ha == st.id) {
        assign_mod(st.fwd_maps[k], s0 + d, s1 + d, hb, n);
      } else {
        ctx.send(ha, MFingerNote{k, s0 + d, s1 + d, hb, /*fwd=*/true});
      }
      if (hb == st.id) {
        assign_mod(st.rev_maps[k], s0 + n - d, s1 + n - d, ha, n);
      } else {
        ctx.send(hb, MFingerNote{k, s0 + n - d, s1 + n - d, ha, /*fwd=*/false});
      }
      if (ha != st.id && hb != st.id && ha != hb) ctx.introduce(ha, hb, "chord_build:0");
      a = s1;
    }
  }
  st.wave_k = k;
  st.active_wave_k = -1;
  st.active_wave_deadline = 0;
}

void Protocol::handle_ring_note(Ctx& ctx, const MRingNote& m) {
  HostState& st = ctx.state();
  if (st.phase != Phase::kChord) return;
  if (st.fwd_maps.size() != num_waves_) return;
  const std::uint64_t n = params_.n_guests;
  if (st.lo == 0 && m.max_host != kNone) {
    st.rev_maps[0].assign(n - 1, n, m.max_host);
  }
  if (st.hi == n && m.min_host != kNone) {
    st.fwd_maps[0].assign(0, 1, m.min_host);
  }
}

void Protocol::handle_finger_note(Ctx& ctx, const MFingerNote& m, NodeId from) {
  HostState& st = ctx.state();
  (void)from;
  if (st.phase != Phase::kChord) return;
  if (m.k < 0 || static_cast<std::uint32_t>(m.k) >= num_waves_) return;
  if (st.fwd_maps.size() != num_waves_) return;
  if (m.host == kNone) return;
  auto& map = m.fwd ? st.fwd_maps.at(m.k) : st.rev_maps.at(m.k);
  assign_mod(map, m.tlo, m.thi, m.host, params_.n_guests);
}

bool Protocol::any_kept(std::uint64_t s0, std::uint64_t s1, std::uint32_t k) const {
  const std::uint64_t n = params_.n_guests;
  if (s0 >= s1) return false;
  if (s1 > n) {
    return any_kept(s0, n, k) || any_kept(0, s1 - n, k);
  }
  if (params_.target.any_kept_in) {
    return params_.target.any_kept_in(s0, s1, k, n);
  }
  const std::uint64_t len = s1 - s0;
  if (len <= 256) {
    for (std::uint64_t a = s0; a < s1; ++a) {
      if (params_.target.keep(a, k, n)) return true;
    }
    return false;
  }
  // Long runs: test one representative of each bit-k parity (all our targets'
  // keep predicates depend on i only through bit k; a custom target with a
  // finer predicate should keep ranges under 256 or treat this as "kept").
  const std::uint64_t bit = std::uint64_t{1} << k;
  const std::uint64_t clear0 =
      (s0 & bit) == 0 ? s0 : ((s0 >> (k + 1)) + 1) << (k + 1);
  const std::uint64_t set0 = (s0 & bit) != 0 ? s0 : s0 | bit;
  if (clear0 < s1 && params_.target.keep(clear0, k, n)) return true;
  if (set0 < s1 && params_.target.keep(set0, k, n)) return true;
  return false;
}

void Protocol::apply_done_prune(Ctx& ctx) {
  HostState& st = ctx.state();
  const std::uint64_t n = params_.n_guests;
  util::FlatSet<NodeId> needed;
  for (const auto& [pos, host] : st.boundary_host) {
    (void)pos;
    needed.insert(host);
  }
  for (const auto& [pos, host] : st.parent_host) {
    (void)pos;
    needed.insert(host);
  }
  if (st.succ != kNone) needed.insert(st.succ);
  if (st.pred != kNone) needed.insert(st.pred);
  for (std::uint32_t k = 0; k < num_waves_; ++k) {
    if (k < st.fwd_maps.size()) {
      for (const auto& e : st.fwd_maps[k].entries()) {
        // Targets [e.lo, e.hi) belong to sources shifted back by 2^k.
        const std::uint64_t d = std::uint64_t{1} << k;
        const std::uint64_t s0 = (e.lo + n - (d % n)) % n;
        if (e.value != st.id && any_kept(s0, s0 + (e.hi - e.lo), k)) {
          needed.insert(e.value);
        }
      }
    }
    if (k < st.rev_maps.size()) {
      for (const auto& e : st.rev_maps[k].entries()) {
        // Entries are the source positions themselves.
        if (e.value != st.id && any_kept(e.lo, e.hi, k)) needed.insert(e.value);
      }
    }
  }
  const auto& nbrs = ctx.neighbors();
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    const NodeId v = nbrs[k];
    if (needed.count(v)) continue;
    const auto view = ctx.view_at(k);
    if (view->cluster != st.cluster) continue;  // detector's business
    // No connectivity certificate needed here: `needed` contains my whole
    // verified tree structure (boundary/parent/succ/pred), which is never
    // pruned, so the cluster stays connected through the tree regardless of
    // which redundant edges the two endpoints drop first.
    ctx.disconnect(v, "chord_build-d0");
  }
  st.done_needed = std::move(needed);
  st.done_pruned = true;
}

}  // namespace chs::stabilizer
