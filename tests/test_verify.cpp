// Verification subsystem (DESIGN.md D8): the online invariant oracle (engine
// round-observer, incremental I1-I5), the scenario fuzzer's seeded grammar,
// the delta-debugging minimizer, and the freeze/thaw stall events that make
// injected violations observable. The acceptance path — a seeded
// fault-injection scenario caught by the oracle and shrunk to a .scn repro
// that replays the violation — is pinned end to end.
#include <gtest/gtest.h>

#include "campaign/runner.hpp"
#include "core/churn.hpp"
#include "core/invariants.hpp"
#include "graph/generators.hpp"
#include "util/log.hpp"
#include "verify/fuzzer.hpp"
#include "verify/minimize.hpp"
#include "verify/oracle.hpp"

namespace chs {
namespace {

using campaign::Scenario;
using campaign::StartMode;
using verify::FailureSignature;
using verify::InvariantOracle;
using verify::OracleConfig;

std::unique_ptr<core::StabEngine> tree_engine(std::size_t hosts = 12,
                                              std::uint64_t guests = 64,
                                              std::uint64_t seed = 1) {
  util::Rng rng(seed);
  auto ids = graph::sample_ids(hosts, guests, rng);
  core::Params p;
  p.n_guests = guests;
  return core::make_engine(graph::make_random_tree(ids, rng), p, seed);
}

// --- the oracle ------------------------------------------------------------

TEST(Oracle, CleanStabilizationRunStaysClean) {
  util::set_log_level(util::LogLevel::kError);
  auto eng = tree_engine();
  InvariantOracle oracle(*eng);
  const auto res = core::run_to_convergence(*eng, 400000);
  ASSERT_TRUE(res.converged);
  EXPECT_FALSE(oracle.violation().has_value())
      << oracle.violation()->what;
  EXPECT_GT(oracle.rounds_checked(), res.rounds);  // every round + attach
  EXPECT_GT(oracle.hosts_checked(), 0u);
  // Strictly better than the naive n * rounds rebuild even while busy...
  EXPECT_LT(oracle.hosts_checked(), res.rounds * eng->graph().size());
  // ...and ~free once quiescent: a stale-wakeup trickle at most, versus
  // 500 * n for the naive rebuild (same residual the active-set loop pays).
  const std::uint64_t checked_at_convergence = oracle.hosts_checked();
  for (int r = 0; r < 500; ++r) eng->step_round();
  EXPECT_LT(oracle.hosts_checked() - checked_at_convergence, 500u);
  EXPECT_FALSE(oracle.violation().has_value());
}

TEST(Oracle, MatchesTheFullScanOnAChurnyRun) {
  // Cross-validation: the incremental oracle and the O(n) god's-eye
  // check_invariants must agree round for round, including through churn
  // bursts (state wipes + edge deltas + reconnection).
  util::set_log_level(util::LogLevel::kError);
  auto eng = tree_engine(10, 64, 3);
  InvariantOracle oracle(*eng);
  ASSERT_TRUE(core::run_to_convergence(*eng, 400000).converged);
  util::Rng adv(17);
  for (int burst = 0; burst < 3; ++burst) {
    core::churn_burst(*eng, 2, adv);
    for (int r = 0; r < 400; ++r) {
      eng->step_round();
      const std::string full = core::check_invariants(*eng);
      ASSERT_EQ(full, "") << "full scan found what the oracle must find";
      ASSERT_FALSE(oracle.violation().has_value())
          << oracle.violation()->what;
    }
  }
}

TEST(Oracle, CatchesInjectedCorruptionOnAFrozenNetwork) {
  // With the protocol frozen, nothing repairs an injected fault, so the
  // oracle must flag it — and capture the offending round's trace.
  util::set_log_level(util::LogLevel::kError);
  auto eng = tree_engine();
  ASSERT_TRUE(core::run_to_convergence(*eng, 400000).converged);
  eng->protocol().set_frozen(true);
  InvariantOracle oracle(*eng);
  ASSERT_FALSE(oracle.violation().has_value());  // attach-time check clean
  // Sever one host's edges while its ring/structure pointers survive:
  // exactly what churn does, but with no protocol awake to repair it.
  const graph::NodeId victim = eng->graph().ids().front();
  const auto nbrs = eng->graph().neighbors(victim);
  ASSERT_FALSE(nbrs.empty());
  for (graph::NodeId nb : nbrs) eng->inject_edge_removal(victim, nb);
  eng->inject_edge(victim, eng->graph().ids().back());
  eng->step_round();
  ASSERT_TRUE(oracle.violation().has_value());
  EXPECT_FALSE(oracle.violation()->what.empty());
  EXPECT_FALSE(oracle.violation()->trace.empty());  // hard-fail captures
  EXPECT_EQ(oracle.violation()->round, eng->round() - 1);
}

TEST(Oracle, StrideThinsTheChecks) {
  util::set_log_level(util::LogLevel::kError);
  auto eng1 = tree_engine(10, 64, 5);
  auto eng8 = tree_engine(10, 64, 5);
  InvariantOracle o1(*eng1, {.stride = 1});
  InvariantOracle o8(*eng8, {.stride = 8});
  for (int r = 0; r < 400; ++r) {
    eng1->step_round();
    eng8->step_round();
  }
  EXPECT_FALSE(o1.violation().has_value());
  EXPECT_FALSE(o8.violation().has_value());
  EXPECT_GT(o1.rounds_checked(), 4 * o8.rounds_checked());
  EXPECT_GT(o1.hosts_checked(), o8.hosts_checked());
}

TEST(Oracle, DetachFlushesTheFinalPartialStrideWindow) {
  // With a stride longer than the run, the only evaluation is the flush at
  // detach (JobRunner::result detaches before reading the verdict); a
  // violation persisting to the end of the job must still be reported.
  util::set_log_level(util::LogLevel::kError);
  Scenario sc;
  sc.name = "stride-tail";
  sc.n_guests = 64;
  sc.host_counts = {12};
  sc.families = {graph::Family::kRandomTree};
  sc.seed_lo = sc.seed_hi = 1;
  sc.max_rounds = 3000;
  sc.freeze_at(0).churn_at(1, 2);
  const auto jobs = campaign::expand_jobs(sc);
  const auto r =
      campaign::run_job(sc, jobs[0], 1, OracleConfig{.stride = 1u << 30});
  ASSERT_FALSE(r.oracle_violation.empty());
  EXPECT_EQ(r.oracle_violation.substr(0, 2), "I4");
  EXPECT_EQ(r.oracle_rounds_checked, 2u);  // attach check + detach flush
}

TEST(Oracle, ObserverDetachesCleanly) {
  auto eng = tree_engine();
  {
    InvariantOracle oracle(*eng);
    EXPECT_TRUE(eng->has_round_observer());
  }
  EXPECT_FALSE(eng->has_round_observer());  // destructor detached
  eng->step_round();  // and the engine keeps running without it
}

// --- freeze / thaw timeline events ----------------------------------------

Scenario frozen_churn_scenario() {
  Scenario sc;
  sc.name = "frozen-churn";
  sc.n_guests = 64;
  sc.host_counts = {12};
  sc.families = {graph::Family::kRandomTree};
  sc.seed_lo = sc.seed_hi = 1;
  sc.max_rounds = 100000;
  // Stall the whole network, then churn: the survivors' structural
  // references to the victims dangle, and nobody is awake to repair them.
  sc.freeze_at(0).churn_at(1, 2);
  // Decoys the minimizer must strip:
  sc.fault_at(5, 1);
  sc.loss(2, 40, 0.5);
  sc.partition(10, 30);
  return sc;
}

TEST(Verify, OracleCatchesFrozenChurnThroughTheCampaignRunner) {
  util::set_log_level(util::LogLevel::kError);
  const Scenario sc = frozen_churn_scenario();
  ASSERT_EQ(sc.validate(), "");
  const auto jobs = campaign::expand_jobs(sc);
  const auto r = campaign::run_job(sc, jobs[0], 1, OracleConfig{});
  EXPECT_TRUE(r.oracle_armed);
  ASSERT_FALSE(r.oracle_violation.empty());
  EXPECT_EQ(r.oracle_violation.substr(0, 2), "I4");
  EXPECT_FALSE(r.converged);  // hard failure aborted the job
  FailureSignature sig;
  ASSERT_TRUE(verify::job_failed(r, &sig));
  EXPECT_EQ(sig.kind, FailureSignature::Kind::kOracleViolation);
  EXPECT_EQ(sig.invariant, "I4");
}

TEST(Verify, ThawedNetworkRecoversAndStaysOracleClean) {
  util::set_log_level(util::LogLevel::kError);
  Scenario sc;
  sc.name = "stall-heal";
  sc.n_guests = 64;
  sc.host_counts = {12};
  sc.families = {graph::Family::kRandomTree};
  sc.seed_lo = sc.seed_hi = 2;
  sc.max_rounds = 100000;
  // A pure stall (no faults while frozen) must heal on thaw and stay
  // invariant-clean throughout.
  sc.freeze_at(0).thaw_at(40);
  const auto jobs = campaign::expand_jobs(sc);
  const auto r = campaign::run_job(sc, jobs[0], 1, OracleConfig{});
  EXPECT_TRUE(r.oracle_armed);
  EXPECT_EQ(r.oracle_violation, "");
  EXPECT_TRUE(r.converged);
}

// --- the minimizer ---------------------------------------------------------

TEST(Minimize, ShrinksTheFrozenChurnRepro) {
  util::set_log_level(util::LogLevel::kError);
  const Scenario sc = frozen_churn_scenario();
  const auto jobs = campaign::expand_jobs(sc);
  FailureSignature sig{FailureSignature::Kind::kOracleViolation, "I4"};
  const auto min = verify::minimize(sc, jobs[0], sig, {});
  // The decoy fault, loss window, and partition must be gone; freeze +
  // churn must survive (dropping either heals the failure).
  ASSERT_EQ(min.scenario.events.size(), 2u);
  EXPECT_EQ(min.scenario.events[0].kind, campaign::EventKind::kFreeze);
  EXPECT_EQ(min.scenario.events[1].kind, campaign::EventKind::kChurn);
  EXPECT_TRUE(min.scenario.losses.empty());
  EXPECT_TRUE(min.scenario.partitions.empty());
  EXPECT_EQ(min.scenario.num_jobs(), 1u);
  EXPECT_LE(min.scenario.host_counts[0], sc.host_counts[0]);
  EXPECT_GT(min.probes, 0u);
  EXPECT_FALSE(min.steps.empty());
  // The minimized repro still replays the violation...
  EXPECT_EQ(min.replay.oracle_violation.substr(0, 2), "I4");
  // ...and survives the .scn round trip: serialize, parse, replay.
  std::string error;
  const auto reparsed =
      campaign::parse_scenario(min.scenario.to_text(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(*reparsed, min.scenario);
  campaign::JobResult replay;
  EXPECT_TRUE(verify::reproduces(*reparsed, sig, {}, &replay));
  EXPECT_EQ(replay.oracle_violation.substr(0, 2), "I4");
}

TEST(Minimize, NeverOrphansAFreezeThawPair) {
  // Shrinks must not introduce stall pathologies: dropping only the thaw
  // of a paired stall would leave the network frozen forever and
  // "reproduce" nearly any signature for the wrong reason. Here the
  // violation happens inside the stall window, so dropping the (later,
  // semantically irrelevant to the violation) thaw would still reproduce —
  // the structural guard alone keeps it.
  util::set_log_level(util::LogLevel::kError);
  Scenario sc;
  sc.name = "paired-stall";
  sc.n_guests = 64;
  sc.host_counts = {12};
  sc.families = {graph::Family::kRandomTree};
  sc.seed_lo = sc.seed_hi = 1;
  sc.max_rounds = 100000;
  sc.freeze_at(0).churn_at(1, 2).thaw_at(90);
  const auto jobs = campaign::expand_jobs(sc);
  FailureSignature sig{FailureSignature::Kind::kOracleViolation, "I4"};
  const auto min = verify::minimize(sc, jobs[0], sig, {});
  ASSERT_EQ(min.scenario.events.size(), 3u);
  EXPECT_EQ(min.scenario.events[0].kind, campaign::EventKind::kFreeze);
  EXPECT_EQ(min.scenario.events[1].kind, campaign::EventKind::kChurn);
  EXPECT_EQ(min.scenario.events[2].kind, campaign::EventKind::kThaw);
  EXPECT_EQ(min.replay.oracle_violation.substr(0, 2), "I4");
}

TEST(Minimize, IsDeterministic) {
  util::set_log_level(util::LogLevel::kError);
  const Scenario sc = frozen_churn_scenario();
  const auto jobs = campaign::expand_jobs(sc);
  FailureSignature sig{FailureSignature::Kind::kOracleViolation, "I4"};
  const auto a = verify::minimize(sc, jobs[0], sig, {});
  const auto b = verify::minimize(sc, jobs[0], sig, {});
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.steps, b.steps);
}

// --- the fuzzer ------------------------------------------------------------

TEST(Fuzzer, GrammarEmitsValidScenarios) {
  util::Rng root(123);
  for (std::uint64_t i = 0; i < 64; ++i) {
    util::Rng rng = root.split(i);
    const Scenario sc = verify::generate_scenario(i, rng);
    EXPECT_EQ(sc.validate(), "") << "case " << i;
    EXPECT_LE(sc.num_jobs(), 2u);
    // Round-trips through the text format (the repro path depends on it).
    std::string error;
    const auto reparsed = campaign::parse_scenario(sc.to_text(), &error);
    ASSERT_TRUE(reparsed.has_value()) << error;
    EXPECT_EQ(*reparsed, sc) << "case " << i;
  }
}

TEST(Fuzzer, ReportIsDeterministicAcrossParallelism) {
  util::set_log_level(util::LogLevel::kError);
  verify::FuzzOptions opt;
  opt.seed = 5;
  opt.budget = 3;
  const auto base = verify::run_fuzz(opt);
  opt.jobs = 4;
  opt.engine_workers = 2;
  const auto wide = verify::run_fuzz(opt);
  EXPECT_EQ(base.to_text(), wide.to_text());
}

TEST(Fuzzer, BudgetExtensionReplaysThePrefix) {
  util::set_log_level(util::LogLevel::kError);
  verify::FuzzOptions opt;
  opt.seed = 11;
  opt.budget = 2;
  const auto small = verify::run_fuzz(opt);
  opt.budget = 3;
  const auto big = verify::run_fuzz(opt);
  const std::string small_text = small.to_text();
  const std::string big_text = big.to_text();
  // Case lines for the shared prefix are identical.
  const auto line = [](const std::string& s, int n) {
    std::size_t pos = 0;
    for (int i = 0; i < n; ++i) pos = s.find('\n', pos) + 1;
    return s.substr(pos, s.find('\n', pos) - pos);
  };
  EXPECT_EQ(line(small_text, 1), line(big_text, 1));
  EXPECT_EQ(line(small_text, 2), line(big_text, 2));
}

TEST(Fuzzer, SmokeBudgetRunsOracleCleanOnTheFixedProtocol) {
  // The CI fuzz-smoke contract: a small fixed-seed budget over the current
  // protocol finds nothing. (When this fails it found a real bug — fuzz
  // output names the case and, with minimize, the .scn repro.)
  util::set_log_level(util::LogLevel::kError);
  verify::FuzzOptions opt;
  opt.seed = 1;
  opt.budget = 8;
  const auto rep = verify::run_fuzz(opt);
  EXPECT_EQ(rep.failures.size(), 0u) << rep.to_text();
  EXPECT_GT(rep.oracle_rounds_checked, 0u);
}

// --- the lollipop livelock regression (ROADMAP open item) -----------------

TEST(Verify, LollipopLivelockScenarioConverges) {
  // lollipop n=20 N=128 seed=3 livelocked forever before the Rng::split
  // fix: the per-node streams of the two surviving cluster roots were
  // shifted copies of each other, so they drew identical leader/follower
  // coins and identical epoch jitter every epoch — no leader/follower pair
  // could ever form. The committed .scn replays the exact configuration
  // through the campaign runner with the oracle armed.
  util::set_log_level(util::LogLevel::kError);
  std::string error;
  const auto sc = campaign::load_scenario(
      std::string(CHS_SOURCE_DIR) + "/examples/scenarios/lollipop_livelock.scn", &error);
  ASSERT_TRUE(sc.has_value()) << error;
  const auto jobs = campaign::expand_jobs(*sc);
  ASSERT_EQ(jobs.size(), 1u);
  const auto r = campaign::run_job(*sc, jobs[0], 1, OracleConfig{});
  EXPECT_TRUE(r.converged) << "matching livelock is back";
  EXPECT_EQ(r.oracle_violation, "");
}

TEST(Verify, MidMergeChurnScenarioStaysOracleClean) {
  // Found by `chordsim fuzz --seed 42 --budget 200 --minimize`: churn that
  // lands between a zip peer's ZipStep and the commit flood used to make
  // apply_commit adopt structural references to the vanished host
  // (merge.cpp now validates the pending structure against live edges).
  util::set_log_level(util::LogLevel::kError);
  std::string error;
  const auto sc = campaign::load_scenario(
      std::string(CHS_SOURCE_DIR) + "/examples/scenarios/midmerge_churn.scn", &error);
  ASSERT_TRUE(sc.has_value()) << error;
  const auto jobs = campaign::expand_jobs(*sc);
  const auto r = campaign::run_job(*sc, jobs[0], 1, OracleConfig{});
  EXPECT_EQ(r.oracle_violation, "") << "@ round " << r.oracle_round;
  EXPECT_TRUE(r.converged);
}

}  // namespace
}  // namespace chs
