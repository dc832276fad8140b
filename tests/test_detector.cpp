// Detector unit tests (§4.4, Definition 3): each corruption of a legal
// state must be flagged within the paper's latency bound — and, just as
// importantly, clean executions must never trip it (no false faults).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/network.hpp"
#include "graph/generators.hpp"
#include "util/bitops.hpp"

namespace chs {
namespace {

using core::Params;
using core::Phase;
using core::StabEngine;
using graph::NodeId;
using stabilizer::HostState;

std::unique_ptr<StabEngine> legal_cbt_engine(std::uint64_t n_guests,
                                             std::size_t n_hosts,
                                             Phase phase) {
  util::Rng rng(77);
  auto ids = graph::sample_ids(n_hosts, n_guests, rng);
  Params p;
  p.n_guests = n_guests;
  auto eng = core::make_engine(core::scaffold_graph(ids, n_guests), p, 3);
  core::install_legal_cbt(*eng, phase);
  return eng;
}

std::uint64_t rounds_until_any_reset(StabEngine& eng, std::uint64_t budget) {
  const std::uint64_t before = core::total_resets(eng);
  for (std::uint64_t r = 0; r < budget; ++r) {
    eng.step_round();
    if (core::total_resets(eng) > before) return r;
  }
  return ~std::uint64_t{0};
}

TEST(Detector, LegalCbtStateIsStable) {
  auto eng = legal_cbt_engine(64, 16, Phase::kCbt);
  for (int r = 0; r < 200; ++r) eng->step_round();
  EXPECT_EQ(core::total_resets(*eng), 0u);
}

TEST(Detector, CleanFullRunHasNoFalseFaults) {
  // The strongest property: from clean singleton states, the entire build
  // (merging + Chord construction + DONE) never trips the detector.
  util::Rng rng(11);
  auto ids = graph::sample_ids(16, 64, rng);
  Params p;
  p.n_guests = 64;
  auto eng = core::make_engine(core::scaffold_graph(ids, 64), p, 3);
  core::install_legal_cbt(*eng, Phase::kCbt);
  const auto res = core::run_to_convergence(*eng, 10000);
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.total_resets, 0u);
}

TEST(Detector, BadRangeDetectedImmediately) {
  auto eng = legal_cbt_engine(64, 16, Phase::kCbt);
  auto& st = eng->state_mut(eng->graph().ids()[3]);
  st.hi = st.lo;  // empty range: malformed
  eng->republish();
  EXPECT_LE(rounds_until_any_reset(*eng, 100), 1u);
}

TEST(Detector, RangeIdMismatchDetected) {
  auto eng = legal_cbt_engine(64, 16, Phase::kCbt);
  auto& st = eng->state_mut(eng->graph().ids()[5]);
  st.lo = st.id + 1 < st.hi ? st.id + 1 : st.lo;  // range not anchored at id
  eng->republish();
  EXPECT_LE(rounds_until_any_reset(*eng, 100), 1u);
}

TEST(Detector, RootClaimMismatchDetected) {
  auto eng = legal_cbt_engine(64, 16, Phase::kCbt);
  const auto& ids = eng->graph().ids();
  // A non-root host claiming to be its own cluster root.
  for (NodeId id : ids) {
    auto& st = eng->state_mut(id);
    if (!st.is_root()) {
      st.cluster = id;
      break;
    }
  }
  eng->republish();
  EXPECT_LE(rounds_until_any_reset(*eng, 100), 2u);
}

TEST(Detector, BoundaryMapCorruptionDetected) {
  auto eng = legal_cbt_engine(64, 16, Phase::kCbt);
  const auto& ids = eng->graph().ids();
  for (NodeId id : ids) {
    auto& st = eng->state_mut(id);
    if (!st.boundary_host.empty()) {
      st.boundary_host.erase(st.boundary_host.begin());
      break;
    }
  }
  eng->republish();
  EXPECT_LE(rounds_until_any_reset(*eng, 100), 1u);
}

TEST(Detector, SuccTileViolationDetected) {
  auto eng = legal_cbt_engine(64, 16, Phase::kCbt);
  const auto& ids = eng->graph().ids();
  auto& st = eng->state_mut(ids[2]);
  ASSERT_NE(st.succ, stabilizer::kNone);
  st.hi += 1;  // ranges no longer tile with succ's claimed start
  eng->republish();
  EXPECT_LE(rounds_until_any_reset(*eng, 100), 2u);
}

TEST(Detector, RangeRewrittenWithoutRecomputeIsFlagged) {
  // Fault code that moves hi without recomputing the fragment cache must
  // not leave the detector judging the maps against the old range. The
  // victim keeps its own id and the guest root on the same side of both
  // ranges (check 0 stays quiet) and has an open merge window (check 3's
  // tiling and reciprocity lines stay quiet), so only check 1 on the
  // refreshed geometry can flag it in its first step, before neighbors
  // that saw the change reset and drag it along.
  auto eng = legal_cbt_engine(64, 16, Phase::kCbt);
  const auto root = eng->protocol().guest_root();
  NodeId victim = stabilizer::kNone;
  for (NodeId id : eng->graph().ids()) {
    const HostState& st = eng->state(id);
    if (st.id + 1 < st.hi && st.succ != stabilizer::kNone &&
        !(root >= st.lo && root < st.hi)) {
      victim = id;
      break;
    }
  }
  ASSERT_NE(victim, stabilizer::kNone);
  auto& st = eng->state_mut(victim);
  st.recent_until = eng->round() + 1000;
  st.hi -= 1;
  eng->republish();
  eng->step_round();
  EXPECT_EQ(eng->state(victim).resets, 1u);
}

TEST(Detector, RepeatedReferenceHostIsRangeCheckedAtEachPosition) {
  // Check 3 runs its host-level checks once per run of references naming
  // the same host, but the range check at every position. Re-point a
  // boundary entry at the host the entry before it names: that host is
  // still a neighbor, in the victim's cluster, and still reciprocates, so
  // only the range check at the re-pointed position can flag it.
  auto eng = legal_cbt_engine(256, 32, Phase::kCbt);
  NodeId victim = stabilizer::kNone, h1 = stabilizer::kNone;
  stabilizer::GuestId p2 = 0;
  for (NodeId id : eng->graph().ids()) {
    const auto& bh = eng->state(id).boundary_host;
    const auto it = std::adjacent_find(
        bh.begin(), bh.end(),
        [](const auto& a, const auto& b) { return a.second != b.second; });
    if (it == bh.end()) continue;
    victim = id;
    h1 = it->second;
    p2 = std::next(it)->first;
    break;
  }
  ASSERT_NE(victim, stabilizer::kNone);
  const HostState& peer = eng->state(h1);
  ASSERT_TRUE(p2 < peer.lo || p2 >= peer.hi);
  eng->state_mut(victim).boundary_host[p2] = h1;
  eng->republish();
  eng->step_round();
  EXPECT_EQ(eng->state(victim).resets, 1u);
}

TEST(Detector, PhaseMixtureInfectsToCbt) {
  // Lemma 2: set half the hosts to CHORD with no wave in flight: the CBT
  // absorbing rule plus phase mismatch must drag everyone to CBT quickly.
  auto eng = legal_cbt_engine(64, 16, Phase::kChord);
  const auto& ids = eng->graph().ids();
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    auto& st = eng->state_mut(ids[i]);
    st.phase = Phase::kCbt;
    st.fwd_maps.clear();
    st.rev_maps.clear();
    st.chord_gap_timer = 0;
    // A CBT host must not carry chord machinery; give it the clean reset
    // shape over the full guest space.
    st = stabilizer::HostState{};
    st.id = ids[i];
    st.phase = Phase::kCbt;
    st.cluster = ids[i];
    st.lo = 0;
    st.hi = 64;
    eng->protocol().recompute_fragments(st);
    st.nbrs = eng->graph().neighbors(ids[i]);
  }
  eng->republish();
  std::uint64_t rounds = 0;
  const auto all_cbt = [&] {
    for (NodeId id : ids) {
      if (eng->state(id).phase != Phase::kCbt) return false;
    }
    return true;
  };
  while (!all_cbt() && rounds < 500) {
    eng->step_round();
    ++rounds;
  }
  EXPECT_TRUE(all_cbt());
  EXPECT_LE(rounds, 2 * util::pif_wave_round_bound(64) + 8);
}

TEST(Detector, ChordWaveGapDetected) {
  // Definition 3 condition 3: a host whose wave counter is 2 ahead of a
  // structural neighbor's is not in any scaffolded configuration.
  auto eng = legal_cbt_engine(256, 32, Phase::kChord);
  core::install_chord_built_upto(*eng, 2);
  auto& st = eng->state_mut(eng->graph().ids()[10]);
  st.wave_k = 0;  // neighbors are at 2
  eng->republish();
  EXPECT_LE(rounds_until_any_reset(*eng, 100), 2u);
}

TEST(Detector, FingerCoverageGapDetected) {
  auto eng = legal_cbt_engine(256, 32, Phase::kChord);
  core::install_chord_built_upto(*eng, 2);
  auto& st = eng->state_mut(eng->graph().ids()[7]);
  if (!st.fwd_maps.empty()) st.fwd_maps[1].clear();
  eng->republish();
  EXPECT_LE(rounds_until_any_reset(*eng, 100), 1u);
}

TEST(Detector, ResetKeepsAllEdges) {
  auto eng = legal_cbt_engine(64, 16, Phase::kCbt);
  const std::size_t edges_before = eng->graph().num_edges();
  auto& st = eng->state_mut(eng->graph().ids()[0]);
  st.hi = st.lo;  // force a fault
  eng->republish();
  eng->step_round();
  // The reset keeps the connectivity substrate: no edge deletions at reset
  // time (redundant-edge hygiene only happens in consistent states).
  EXPECT_GE(eng->graph().num_edges() + 1, edges_before);
}

TEST(Detector, ResetStateIsSingleton) {
  auto eng = legal_cbt_engine(64, 16, Phase::kCbt);
  const NodeId victim = eng->graph().ids()[4];
  auto& st = eng->state_mut(victim);
  st.hi = st.lo;
  eng->republish();
  eng->step_round();
  const auto& after = eng->state(victim);
  EXPECT_EQ(after.phase, Phase::kCbt);
  EXPECT_EQ(after.cluster, victim);
  EXPECT_EQ(after.lo, 0u);
  EXPECT_EQ(after.hi, 64u);
  EXPECT_EQ(after.resets, 1u);
}

}  // namespace
}  // namespace chs
