// In-band lookups over the actually-built overlay: stabilize a network with
// the full protocol, hand its final routing state to the lookup protocol,
// and verify every lookup is delivered to the correct responsible host in
// O(log N) message hops. This is the end-to-end "the overlay is usable"
// test the paper's motivation asks for.
#include <gtest/gtest.h>

#include "avatar/range.hpp"
#include "core/network.hpp"
#include "graph/generators.hpp"
#include "routing/protocol.hpp"
#include "util/bitops.hpp"

namespace chs::routing {
namespace {

using core::Params;
using core::Phase;

std::unique_ptr<core::StabEngine> stabilized(
    std::uint64_t n_guests, std::size_t n_hosts, std::uint64_t seed,
    topology::TargetSpec target = topology::chord_target()) {
  util::Rng rng(seed);
  auto ids = graph::sample_ids(n_hosts, n_guests, rng);
  Params p;
  p.n_guests = n_guests;
  p.target = std::move(target);
  auto eng = core::make_engine(core::scaffold_graph(ids, n_guests), p, seed);
  core::install_legal_cbt(*eng, Phase::kChord);
  CHS_CHECK(core::run_to_convergence(*eng, 100000).converged);
  return eng;
}

TEST(InBand, AllLookupsDelivered) {
  auto src = stabilized(256, 48, 3);
  auto eng = make_lookup_engine(*src, 1);
  const auto stats = run_inband_lookups(*eng, 200, 7, 1000);
  EXPECT_EQ(stats.delivered, stats.issued);
  EXPECT_GT(stats.mean_hops, 0.0);
}

TEST(InBand, StatsArePinned) {
  // Exact lookup-plane numbers on one network: any change to the next-hop
  // rule, its scan order or the snapshot hand-off moves at least one.
  auto src = stabilized(256, 48, 3);
  auto eng = make_lookup_engine(*src, 1);
  const auto stats = run_inband_lookups(*eng, 200, 7, 1000);
  EXPECT_EQ(stats.issued, 200u);
  EXPECT_EQ(stats.delivered, 200u);
  EXPECT_EQ(stats.max_hops, 5u);
  EXPECT_EQ(stats.rounds, 9u);
  EXPECT_EQ(stats.mean_hops, 546.0 / 200.0);
}

TEST(InBand, DeliveredToResponsibleHost) {
  auto src = stabilized(128, 24, 5);
  auto eng = make_lookup_engine(*src, 1);
  run_inband_lookups(*eng, 100, 11, 1000);
  const auto& ids = eng->graph().ids();
  for (graph::NodeId id : ids) {
    for (const auto& [target, hops] : eng->state(id).delivered) {
      (void)hops;
      EXPECT_EQ(avatar::host_of(target, ids), id)
          << "guest " << target << " delivered to wrong host";
    }
  }
}

TEST(InBand, HopsAreLogarithmic) {
  for (std::uint64_t n_guests : {256ULL, 1024ULL}) {
    auto src = stabilized(n_guests, n_guests / 8, 7);
    auto eng = make_lookup_engine(*src, 1);
    const auto stats = run_inband_lookups(*eng, 300, 13, 2000);
    EXPECT_EQ(stats.delivered, stats.issued) << "N=" << n_guests;
    EXPECT_LE(stats.max_hops, 3 * util::ceil_log2(n_guests))
        << "N=" << n_guests;
  }
}

TEST(InBand, LocalLookupsCostZeroHops) {
  auto src = stabilized(128, 16, 9);
  auto eng = make_lookup_engine(*src, 1);
  // Issue lookups for guests each origin itself hosts.
  const auto& ids = eng->graph().ids();
  for (graph::NodeId id : ids) {
    auto& st = eng->state_mut(id);
    st.to_send.emplace_back(st.lo, 1000 + id);
  }
  eng->republish();
  for (int r = 0; r < 10; ++r) eng->step_round();
  for (graph::NodeId id : ids) {
    const auto& d = eng->state(id).delivered;
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].second, 0u);
  }
}

TEST(InBand, NextHopNeverOvershoots) {
  // Unit check of the closest-preceding rule: the chosen next hop's guest
  // must precede the target at least as closely as the ring successor.
  auto src = stabilized(128, 16, 11);
  auto eng = make_lookup_engine(*src, 1);
  util::Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const auto& ids = eng->graph().ids();
    const graph::NodeId h = ids[rng.next_below(ids.size())];
    const auto& st = eng->state(h);
    const GuestId t = rng.next_below(128);
    const auto next = next_hop(st, t, 128, [](NodeId) { return true; });
    if (t >= st.lo && t < st.hi) {
      EXPECT_EQ(next, kNoneHost);
    } else {
      EXPECT_NE(next, kNoneHost);
      EXPECT_TRUE(eng->graph().has_edge(h, next)) << h << "->" << next;
    }
  }
}

TEST(InBand, ExtensionTargetsRouteToo) {
  // The routing tables the waves build (fwd maps per level) exist for every
  // target; targets that keep the whole ring always make progress, so
  // lookups deliver — only the hop counts differ (fewer long fingers kept
  // means more ring steps; still bounded by the generous budget).
  for (const auto& [name, target] :
       std::vector<std::pair<const char*, topology::TargetSpec>>{
           {"bichord", topology::bichord_target()},
           {"skiplist", topology::skiplist_target()},
           {"smallworld", topology::smallworld_target(13)}}) {
    auto src = stabilized(128, 24, 9, target);
    auto eng = make_lookup_engine(*src, 2);
    const auto stats = run_inband_lookups(*eng, 120, 5, 5000);
    EXPECT_EQ(stats.delivered, stats.issued) << name;
  }
}

}  // namespace
}  // namespace chs::routing
