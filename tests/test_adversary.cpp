// Adversary bestiary (DESIGN.md D11): Byzantine behavior policies,
// correlated failure domains, WAN delay models, and oracle blame
// attribution.
//
// Determinism is the backbone of every case here: a composed attack
// (Byzantine liars over churn, a rack outage under a partition, lognormal
// WAN delays under loss) must produce bit-identical JobResults at any
// engine worker count and resume bit-for-bit from a checkpoint taken
// mid-attack. The blame attribution cases pin the D11 classification rule:
// violations focused on an adversarial host or its direct neighbors are
// contained, everything else — and any I1 disconnect — stays a real verdict.
#include <gtest/gtest.h>

#include "adversary/behavior.hpp"
#include "adversary/delay_model.hpp"
#include "adversary/domains.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "core/network.hpp"
#include "persist/fields.hpp"
#include "persist/io.hpp"
#include "util/log.hpp"
#include "verify/oracle.hpp"

namespace chs {
namespace {

using adversary::BehaviorKind;
using campaign::EventKind;
using campaign::Scenario;

// --- domain mapping ---------------------------------------------------------

TEST(Domains, BlockMappingCoversEveryIndexExactlyOnce) {
  for (std::uint64_t total : {7u, 12u, 100u}) {
    for (std::uint64_t parts : {1u, 3u, 5u}) {
      std::uint64_t covered = 0;
      for (std::uint64_t p = 0; p < parts; ++p) {
        const std::uint64_t lo = adversary::part_begin(p, total, parts);
        const std::uint64_t hi = adversary::part_end(p, total, parts);
        EXPECT_LE(lo, hi);
        for (std::uint64_t i = lo; i < hi; ++i) {
          EXPECT_EQ(adversary::member_of(i, total, parts), p);
        }
        covered += hi - lo;
      }
      EXPECT_EQ(covered, total) << total << "/" << parts;
    }
  }
}

TEST(Domains, RackAndZoneComposition) {
  // 12 hosts, 4 racks, 2 zones: racks of 3, zones of 2 racks.
  EXPECT_EQ(adversary::rack_of_index(0, 12, 4), 0u);
  EXPECT_EQ(adversary::rack_of_index(11, 12, 4), 3u);
  EXPECT_EQ(adversary::zone_of_rack(0, 4, 2), 0u);
  EXPECT_EQ(adversary::zone_of_rack(3, 4, 2), 1u);
}

// --- delay models -----------------------------------------------------------

TEST(DelayModels, SamplesStayInRangeAndUniformMatchesLegacyDraw) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t legacy = 1 + a.next_below(3);
    const std::uint64_t got =
        adversary::sample_delay(adversary::DelayModel::kUniform, 7, 9, 3, b);
    EXPECT_EQ(got, legacy);  // same stream, same draws: goldens protected
  }
  util::Rng r(7);
  for (auto m : {adversary::DelayModel::kLognormal,
                 adversary::DelayModel::kBimodalSpike}) {
    for (std::uint64_t from = 0; from < 8; ++from) {
      for (int i = 0; i < 100; ++i) {
        const std::uint64_t d = adversary::sample_delay(m, from, from + 1, 4, r);
        EXPECT_GE(d, 1u);
        EXPECT_LE(d, 4u);
      }
    }
  }
}

TEST(DelayModels, EdgeCharacterIsDeterministicPerEdge) {
  const double h = adversary::edge_character(3, 11);
  EXPECT_EQ(adversary::edge_character(3, 11), h);
  EXPECT_NE(adversary::edge_character(11, 3), h);  // directional
  EXPECT_GE(h, 0.0);
  EXPECT_LT(h, 1.0);
}

// --- scenario format --------------------------------------------------------

TEST(AdversaryScenario, ParsesBestiaryDirectives) {
  const char* text = R"(
name bestiary
guests 64
hosts 12
racks 4
zones 2
delay 2
delay-model lognormal
byzantine 5 40 0.25 liar
byzantine 50 60 0.1 merge-refuser
at 20 rack-outage 1
at 30 zone-outage 0
loss 10 30 0.5 rack 2
partition 15 25 zone 1
)";
  std::string error;
  const auto sc = campaign::parse_scenario(text, &error);
  ASSERT_TRUE(sc.has_value()) << error;
  EXPECT_EQ(sc->racks, 4u);
  EXPECT_EQ(sc->zones, 2u);
  EXPECT_EQ(sc->delay_model, "lognormal");
  ASSERT_EQ(sc->byzantine.size(), 2u);
  EXPECT_EQ(sc->byzantine[0].kind, BehaviorKind::kLiar);
  EXPECT_DOUBLE_EQ(sc->byzantine[0].fraction, 0.25);
  EXPECT_EQ(sc->byzantine[1].kind, BehaviorKind::kMergeRefuser);
  ASSERT_EQ(sc->events.size(), 2u);
  EXPECT_EQ(sc->events[0].kind, EventKind::kRackOutage);
  EXPECT_EQ(sc->events[1].kind, EventKind::kZoneOutage);
  ASSERT_EQ(sc->losses.size(), 1u);
  EXPECT_EQ(sc->losses[0].scope, campaign::kScopeRack);
  EXPECT_EQ(sc->losses[0].domain, 2u);
  ASSERT_EQ(sc->partitions.size(), 1u);
  EXPECT_EQ(sc->partitions[0].scope, campaign::kScopeZone);
  EXPECT_EQ(sc->partitions[0].domain, 1u);
  // Round-trip identity keeps committed .scn repros stable.
  const auto again = campaign::parse_scenario(sc->to_text(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->to_text(), sc->to_text());
}

TEST(AdversaryScenario, ValidateRejectsInconsistentBestiary) {
  std::string error;
  // Non-uniform model needs delay >= 2 (a 1-step link has nothing to vary).
  EXPECT_FALSE(campaign::parse_scenario("delay-model lognormal\n", &error));
  EXPECT_FALSE(campaign::parse_scenario("delay-model warp\n", &error));
  // More racks than hosts; zones without racks; domain out of range.
  EXPECT_FALSE(campaign::parse_scenario("hosts 4\nracks 5\n", &error));
  EXPECT_FALSE(campaign::parse_scenario("zones 2\n", &error));
  EXPECT_FALSE(
      campaign::parse_scenario("racks 2\nat 0 rack-outage 2\n", &error));
  EXPECT_FALSE(campaign::parse_scenario("racks 2\nat 0 zone-outage 0\n",
                                        &error));
  EXPECT_FALSE(
      campaign::parse_scenario("racks 2\nloss 0 10 0.5 zone 0\n", &error));
  // Byzantine windows: kind must be adversarial, fraction in (0, 1].
  EXPECT_FALSE(
      campaign::parse_scenario("byzantine 0 10 0.5 correct\n", &error));
  EXPECT_FALSE(campaign::parse_scenario("byzantine 0 10 0.0 liar\n", &error));
  EXPECT_FALSE(campaign::parse_scenario("byzantine 10 10 0.5 liar\n", &error));
}

// --- oracle blame attribution -----------------------------------------------

TEST(BlameAttribution, AdversarialFocusAndNeighborsAreContained) {
  util::set_log_level(util::LogLevel::kError);
  util::Rng rng(1);
  auto ids = graph::sample_ids(16, 64, rng);
  auto g0 = graph::make_family(graph::Family::kLine, ids, rng);
  core::Params p;
  p.n_guests = 64;
  p.target = *campaign::target_by_name("chord");
  auto eng = core::make_engine(std::move(g0), p, 1);
  ASSERT_TRUE(core::run_to_convergence(*eng, 100000).converged);

  // Pick the cast from the converged graph (the adjacency the oracle's
  // blame radius reads): an adversary, one of its direct neighbors, and a
  // host with no edge to the adversary.
  const auto& g = eng->graph();
  graph::NodeId adv = stabilizer::kNone;
  graph::NodeId far = stabilizer::kNone;
  for (graph::NodeId a : g.ids()) {
    for (graph::NodeId f : g.ids()) {
      if (a != f && !g.has_edge(a, f)) {
        adv = a;
        far = f;
        break;
      }
    }
    if (adv != stabilizer::kNone) break;
  }
  ASSERT_NE(adv, stabilizer::kNone) << "graph is complete; grow the host set";
  const graph::NodeId near = *g.neighbors(adv).begin();
  ASSERT_NE(near, far);

  // Freeze the protocol: corrupted state must survive to the oracle's
  // end-of-round evaluation instead of being self-repaired mid-round.
  eng->protocol().set_frozen(true);
  verify::InvariantOracle oracle(*eng);
  oracle.set_adversarial({adv});
  ASSERT_FALSE(oracle.violation().has_value());

  auto corrupt = [&](graph::NodeId victim) {
    auto& st = eng->state_mut(victim);  // marks dirty: oracle re-checks it
    st.lo = st.id + 1;                  // I2: lo >= hi class corruption
    st.hi = st.id;
  };
  corrupt(adv);  // focus IS the adversary: contained
  eng->step_round();
  EXPECT_FALSE(oracle.violation().has_value());
  EXPECT_GE(oracle.contained_violations(), 1u);

  const std::uint64_t before = oracle.contained_violations();
  corrupt(near);  // focus is a direct neighbor: still contained
  eng->step_round();
  EXPECT_FALSE(oracle.violation().has_value());
  EXPECT_GT(oracle.contained_violations(), before);

  corrupt(far);  // outside the one-hop blame radius: a real verdict
  eng->step_round();
  ASSERT_TRUE(oracle.violation().has_value());
  EXPECT_NE(oracle.violation()->what.find("I2"), std::string::npos);
}

// --- fault composition ------------------------------------------------------

Scenario base_scenario(const char* name) {
  Scenario sc;
  sc.name = name;
  sc.n_guests = 64;
  sc.host_counts = {12};
  sc.families = {graph::Family::kRandomTree};
  sc.seed_lo = sc.seed_hi = 1;
  sc.max_rounds = 100000;
  return sc;
}

std::vector<std::uint8_t> result_bytes(const campaign::JobResult& r) {
  persist::Writer w(persist::BlobKind::kRaw);
  w.begin_section(persist::tag4("TEST"));
  w(r);
  w.end_section();
  return w.take();
}

// Run one composed-fault scenario through the full determinism battery:
// oracle armed throughout, workers 1/2/8 byte-identical, and a checkpoint
// captured at timeline round `snap_at` (mid-attack) resumes bit-for-bit.
void composition_battery(const Scenario& sc, std::uint64_t snap_at,
                         bool expect_contained_clean = true) {
  util::set_log_level(util::LogLevel::kError);
  ASSERT_EQ(sc.validate(), "");
  const auto jobs = campaign::expand_jobs(sc);
  ASSERT_EQ(jobs.size(), 1u);
  const verify::OracleConfig cfg{.hard_fail = false};

  std::vector<std::uint8_t> snapshot;
  campaign::JobRunner donor(sc, jobs[0], 1, cfg);
  donor.run([&](campaign::JobRunner& jr) {
    if (snapshot.empty() && jr.in_timeline() &&
        jr.timeline_round() == snap_at) {
      persist::Writer w(persist::BlobKind::kJob);
      jr.checkpoint(w);
      snapshot = w.take();
    }
    return true;
  });
  ASSERT_TRUE(donor.finished());
  const auto base = donor.result();
  const auto want = result_bytes(base);
  ASSERT_FALSE(snapshot.empty()) << "snapshot round never reached";
  EXPECT_TRUE(base.converged) << sc.name;
  if (expect_contained_clean) {
    EXPECT_EQ(base.oracle_violation, "")
        << sc.name << " @ round " << base.oracle_round;
  }

  for (const std::size_t workers : {2u, 8u}) {
    campaign::JobRunner wide(sc, jobs[0], workers, cfg);
    wide.run();
    EXPECT_EQ(result_bytes(wide.result()), want)
        << sc.name << " diverged at workers=" << workers;
  }
  for (const std::size_t workers : {1u, 2u, 8u}) {
    campaign::JobRunner resumed(sc, jobs[0], workers, cfg);
    persist::Reader r(snapshot);
    ASSERT_TRUE(r.expect_header(persist::BlobKind::kJob).ok);
    ASSERT_TRUE(resumed.restore(r).ok);
    ASSERT_TRUE(r.expect_end().ok);
    resumed.run();
    EXPECT_EQ(result_bytes(resumed.result()), want)
        << sc.name << " resume diverged at workers=" << workers;
  }
}

TEST(FaultComposition, ByzantineLiarsOverlappingChurnBurst) {
  Scenario sc = base_scenario("byz-churn");
  sc.byz(0, 60, 0.2, BehaviorKind::kLiar).churn_at(20, 2);
  composition_battery(sc, 30);
}

TEST(FaultComposition, RackOutageUnderScopedPartition) {
  Scenario sc = base_scenario("rack-partition");
  sc.racks = 3;
  sc.rack_outage_at(20, 1);
  sc.partition(10, 40, campaign::kScopeRack, 0);
  composition_battery(sc, 25);
}

TEST(FaultComposition, LognormalDelayUnderLoss) {
  Scenario sc = base_scenario("wan-loss");
  sc.delay = 3;
  sc.delay_model = "lognormal";
  sc.loss(0, 50, 0.3).churn_at(10, 1);
  composition_battery(sc, 20);
}

TEST(FaultComposition, ZoneOutageRollsAcrossRounds) {
  Scenario sc = base_scenario("zone-roll");
  sc.racks = 4;
  sc.zones = 2;
  sc.zone_outage_at(15, 0);  // racks 0 and 1 wiped at rounds 15 and 16
  composition_battery(sc, 16);  // checkpoint lands between the two wipes
}

TEST(FaultComposition, DropperAndMergeRefuserWindowsRecover) {
  Scenario sc = base_scenario("drop-refuse");
  sc.byz(0, 30, 0.15, BehaviorKind::kSelective)
      .byz(40, 60, 0.15, BehaviorKind::kMergeRefuser)
      .churn_at(45, 1);
  composition_battery(sc, 45);
}

// --- report plumbing --------------------------------------------------------

TEST(AdversaryReport, WindowsAndContainmentSurfaceInJson) {
  util::set_log_level(util::LogLevel::kError);
  Scenario sc = base_scenario("report");
  sc.byz(0, 40, 0.2, BehaviorKind::kLiar);
  campaign::RunOptions opts;
  opts.oracle = verify::OracleConfig{.hard_fail = false};
  const auto rep = campaign::run_campaign(sc, opts);
  ASSERT_EQ(rep.results.size(), 1u);
  const auto& r = rep.results[0];
  EXPECT_TRUE(r.adversary_armed);
  ASSERT_EQ(r.byz_windows.size(), 1u);
  EXPECT_EQ(r.byz_windows[0].kind, BehaviorKind::kLiar);
  EXPECT_GE(r.byz_windows[0].hosts.size(), 2u);  // 0.2 * 12 rounds to 2
  EXPECT_TRUE(r.correct_converged);
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"adversary\""), std::string::npos);
  EXPECT_NE(json.find("\"correct_converged\": true"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"liar\""), std::string::npos);

  // A bestiary-free scenario keeps the adversary block out entirely, so
  // pre-D11 goldens stay byte-identical.
  Scenario plain = base_scenario("plain");
  plain.churn_at(0, 1);
  const auto rep2 = campaign::run_campaign(plain, {});
  EXPECT_EQ(rep2.to_json().find("\"adversary\""), std::string::npos);
}

// --- acceptance: 10% liars over a 1k-host lollipop --------------------------

TEST(AdversaryAcceptance, TenPercentLiarsOnThousandHostLollipop) {
  // The PR's acceptance bar: a 1000-host lollipop network converged under
  // Avatar(chord), then >= 10% of hosts turn snapshot-liars for a whole
  // window. The correct-node subset must reconverge with zero real oracle
  // violations (everything observed is attributed to the adversary), and
  // the run must be byte-identical at engine workers 1/2/8 and across a
  // checkpoint/resume taken mid-attack.
  util::set_log_level(util::LogLevel::kError);
  Scenario sc;
  sc.name = "liars-1k";
  sc.n_guests = 2048;
  sc.host_counts = {1000};
  sc.families = {graph::Family::kLollipop};
  sc.seed_lo = sc.seed_hi = 1;
  sc.max_rounds = 200000;
  sc.byz(2, 30, 0.10, BehaviorKind::kLiar);
  ASSERT_EQ(sc.validate(), "");
  const auto jobs = campaign::expand_jobs(sc);
  const verify::OracleConfig cfg{.hard_fail = false};

  std::vector<std::uint8_t> snapshot;
  campaign::JobRunner donor(sc, jobs[0], 1, cfg);
  donor.run([&](campaign::JobRunner& jr) {
    if (snapshot.empty() && jr.in_timeline() && jr.timeline_round() == 10) {
      persist::Writer w(persist::BlobKind::kJob);
      jr.checkpoint(w);
      snapshot = w.take();
    }
    return true;
  });
  ASSERT_TRUE(donor.finished());
  const auto base = donor.result();
  const auto want = result_bytes(base);
  ASSERT_FALSE(snapshot.empty());

  EXPECT_TRUE(base.setup_converged);
  EXPECT_TRUE(base.converged);         // full reconvergence after the window
  EXPECT_TRUE(base.correct_converged); // and the correct-node subset did too
  EXPECT_EQ(base.oracle_violation, "")
      << "real violation @ round " << base.oracle_round;
  ASSERT_EQ(base.byz_windows.size(), 1u);
  EXPECT_GE(base.byz_windows[0].hosts.size(), 100u);  // >= 10% of 1000

  for (const std::size_t workers : {2u, 8u}) {
    campaign::JobRunner wide(sc, jobs[0], workers, cfg);
    wide.run();
    EXPECT_EQ(result_bytes(wide.result()), want)
        << "diverged at workers=" << workers;
  }
  campaign::JobRunner resumed(sc, jobs[0], 1, cfg);
  persist::Reader r(snapshot);
  ASSERT_TRUE(r.expect_header(persist::BlobKind::kJob).ok);
  ASSERT_TRUE(resumed.restore(r).ok);
  ASSERT_TRUE(r.expect_end().ok);
  resumed.run();
  EXPECT_EQ(result_bytes(resumed.result()), want) << "mid-attack resume diverged";
}

}  // namespace
}  // namespace chs
