// Campaign subsystem (DESIGN.md D7): scenario parsing and validation,
// timeline semantics, the engine's delivery-filter hook, loss/partition
// determinism across engine worker counts, and byte-identical reports at
// any job-runner thread count.
#include <gtest/gtest.h>

#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "graph/analysis.hpp"
#include "sim/engine.hpp"
#include "util/log.hpp"
#include "verify/oracle.hpp"

namespace chs {
namespace {

using campaign::EventKind;
using campaign::JobSpec;
using campaign::Scenario;
using campaign::StartMode;

// --- scenario parsing ------------------------------------------------------

TEST(Scenario, ParsesTheDocumentedFormat) {
  const char* text = R"(
# a comment
name storm
guests 64          # trailing comment
hosts 12 16
families random_tree line
seeds 1 4
target hypercube
delay 2
start cold
max-rounds 5000
at 0 churn 3
at 40 fault 2
loss 10 30 0.25
partition 60 90
at 120 retarget chord
)";
  std::string error;
  const auto sc = campaign::parse_scenario(text, &error);
  ASSERT_TRUE(sc.has_value()) << error;
  EXPECT_EQ(sc->name, "storm");
  EXPECT_EQ(sc->n_guests, 64u);
  EXPECT_EQ(sc->host_counts, (std::vector<std::size_t>{12, 16}));
  EXPECT_EQ(sc->families,
            (std::vector<graph::Family>{graph::Family::kRandomTree,
                                        graph::Family::kLine}));
  EXPECT_EQ(sc->seed_lo, 1u);
  EXPECT_EQ(sc->seed_hi, 4u);
  EXPECT_EQ(sc->target, "hypercube");
  EXPECT_EQ(sc->delay, 2u);
  EXPECT_EQ(sc->start, StartMode::kCold);
  EXPECT_EQ(sc->max_rounds, 5000u);
  ASSERT_EQ(sc->events.size(), 3u);
  EXPECT_EQ(sc->events[0].kind, EventKind::kChurn);
  EXPECT_EQ(sc->events[0].round, 0u);
  EXPECT_EQ(sc->events[0].count, 3u);
  EXPECT_EQ(sc->events[1].kind, EventKind::kFault);
  EXPECT_EQ(sc->events[2].kind, EventKind::kRetarget);
  EXPECT_EQ(sc->events[2].target, "chord");
  ASSERT_EQ(sc->losses.size(), 1u);
  EXPECT_EQ(sc->losses[0].begin, 10u);
  EXPECT_EQ(sc->losses[0].end, 30u);
  EXPECT_DOUBLE_EQ(sc->losses[0].rate, 0.25);
  ASSERT_EQ(sc->partitions.size(), 1u);
  EXPECT_EQ(sc->num_jobs(), 2u * 2u * 4u);
  // timeline_end covers the last event and the last window.
  EXPECT_EQ(sc->timeline_end(), 121u);
}

TEST(Scenario, EventsSortedByRoundRegardlessOfFileOrder) {
  const auto sc = campaign::parse_scenario(
      "at 50 fault 1\nat 10 churn 1\nat 30 retarget chord\n");
  ASSERT_TRUE(sc.has_value());
  ASSERT_EQ(sc->events.size(), 3u);
  EXPECT_EQ(sc->events[0].round, 10u);
  EXPECT_EQ(sc->events[1].round, 30u);
  EXPECT_EQ(sc->events[2].round, 50u);
}

TEST(Scenario, RejectsUnknownDirectivesAndBadValues) {
  std::string error;
  EXPECT_FALSE(campaign::parse_scenario("frobnicate 3\n", &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_NE(error.find("frobnicate"), std::string::npos);
  EXPECT_FALSE(campaign::parse_scenario("families pentagram\n", &error));
  EXPECT_FALSE(campaign::parse_scenario("target moebius\n", &error));
  EXPECT_FALSE(campaign::parse_scenario("loss 30 10 0.5\n", &error));
  EXPECT_FALSE(campaign::parse_scenario("loss 10 30 1.5\n", &error));
  EXPECT_FALSE(campaign::parse_scenario("partition 5 5\n", &error));
  EXPECT_FALSE(campaign::parse_scenario("at 0 retarget moebius\n", &error));
  EXPECT_FALSE(campaign::parse_scenario("at x churn 1\n", &error));
  // churn of every host leaves no anchor.
  EXPECT_FALSE(campaign::parse_scenario("hosts 8\nat 0 churn 8\n", &error));
  // timeline must fit the budget.
  EXPECT_FALSE(
      campaign::parse_scenario("max-rounds 50\nat 60 churn 1\n", &error));
}

TEST(Scenario, RejectsOverflowingNumbers) {
  std::string error;
  EXPECT_FALSE(campaign::parse_scenario(
      "max-rounds 99999999999999999999999\n", &error));
  EXPECT_NE(error.find("max-rounds"), std::string::npos);
  // The largest u64 still parses.
  const auto sc =
      campaign::parse_scenario("max-rounds 18446744073709551615\n", &error);
  ASSERT_TRUE(sc.has_value()) << error;
  EXPECT_EQ(sc->max_rounds, ~std::uint64_t{0});
}

TEST(Scenario, TextFormatRoundTripIsIdentity) {
  // The minimizer emits repros via Scenario::to_text; parse -> serialize ->
  // parse must be the identity or committed .scn repros drift.
  const char* text = R"(
name round-trip
guests 64
hosts 12 16
families random_tree line
seeds 3 7
target hypercube
delay 2
start cold
max-rounds 5000
at 0 churn 3
at 10 freeze
at 20 thaw
at 40 fault 2
at 120 retarget chord
loss 10 30 0.25
loss 40 60 0.1
partition 60 90
)";
  std::string error;
  const auto sc = campaign::parse_scenario(text, &error);
  ASSERT_TRUE(sc.has_value()) << error;
  const std::string serialized = sc->to_text();
  const auto again = campaign::parse_scenario(serialized, &error);
  ASSERT_TRUE(again.has_value()) << error << "\n" << serialized;
  EXPECT_EQ(*again, *sc);
  // And a second round trip is byte-stable.
  EXPECT_EQ(again->to_text(), serialized);
}

TEST(Scenario, RoundTripPreservesAwkwardRates) {
  // Rates that are not exactly representable must still round-trip to the
  // identical double (shortest-exact formatting in to_text).
  for (const char* rate : {"0.1", "0.3333333333333333", "0.05", "1", "0"}) {
    const std::string text =
        std::string("loss 10 30 ") + rate + "\nmax-rounds 100\n";
    std::string error;
    const auto sc = campaign::parse_scenario(text, &error);
    ASSERT_TRUE(sc.has_value()) << error;
    const auto again = campaign::parse_scenario(sc->to_text(), &error);
    ASSERT_TRUE(again.has_value()) << error;
    EXPECT_EQ(again->losses[0].rate, sc->losses[0].rate) << rate;
  }
}

TEST(Scenario, ValidateRejectsNamesTheTextFormatCannotCarry) {
  // A name with whitespace or '#' would serialize into a line
  // parse_scenario rejects or truncates, breaking the round trip the
  // minimizer's .scn output depends on.
  Scenario sc;
  sc.n_guests = 64;
  sc.host_counts = {8};
  sc.name = "my test";
  EXPECT_NE(sc.validate(), "");
  sc.name = "a#b";
  EXPECT_NE(sc.validate(), "");
  sc.name = "ok-name.v2";
  EXPECT_EQ(sc.validate(), "");
}

TEST(Scenario, ParsesFreezeAndThawEvents) {
  std::string error;
  const auto sc =
      campaign::parse_scenario("at 5 freeze\nat 9 thaw\n", &error);
  ASSERT_TRUE(sc.has_value()) << error;
  ASSERT_EQ(sc->events.size(), 2u);
  EXPECT_EQ(sc->events[0].kind, EventKind::kFreeze);
  EXPECT_EQ(sc->events[1].kind, EventKind::kThaw);
  // Extra arguments are a parse error, like everywhere else.
  EXPECT_FALSE(campaign::parse_scenario("at 5 freeze 2\n", &error));
}

TEST(CampaignReport, JsonEscapesScenarioNames) {
  campaign::CampaignReport rep;
  rep.scenario = "a\"b\\c";
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"scenario\": \"a\\\"b\\\\c\""), std::string::npos);
}

TEST(Scenario, BuilderAndValidate) {
  Scenario sc;
  sc.n_guests = 64;
  sc.host_counts = {10};
  sc.churn_at(0, 2).loss(5, 15, 0.5).partition(20, 30).retarget_at(
      40, "hypercube");
  EXPECT_EQ(sc.validate(), "");
  EXPECT_EQ(sc.events.size(), 2u);
  sc.host_counts = {2};
  EXPECT_NE(sc.validate(), "");
}

TEST(Scenario, ExpandJobsOrderIsFamilyMajorThenHostsThenSeeds) {
  Scenario sc;
  sc.families = {graph::Family::kLine, graph::Family::kStar};
  sc.host_counts = {8, 12};
  sc.seed_lo = 3;
  sc.seed_hi = 4;
  const auto jobs = campaign::expand_jobs(sc);
  ASSERT_EQ(jobs.size(), 8u);
  EXPECT_EQ(jobs[0].family, graph::Family::kLine);
  EXPECT_EQ(jobs[0].n_hosts, 8u);
  EXPECT_EQ(jobs[0].seed, 3u);
  EXPECT_EQ(jobs[1].seed, 4u);
  EXPECT_EQ(jobs[2].n_hosts, 12u);
  EXPECT_EQ(jobs[4].family, graph::Family::kStar);
  for (std::size_t i = 0; i < jobs.size(); ++i) EXPECT_EQ(jobs[i].index, i);
}

// --- the engine's delivery filter hook -------------------------------------

struct Pinger {
  struct Message {
    int x;
  };
  struct NodeState {
    int received = 0;
  };
  struct PublicState {
    bool operator==(const PublicState&) const = default;
  };
  void init_node(sim::NodeId, NodeState&, util::Rng&) {}
  void publish(const NodeState&, PublicState&) {}
  void step(sim::NodeCtx<Pinger>& ctx) {
    ctx.state().received += static_cast<int>(ctx.inbox().size());
    for (sim::NodeId nb : ctx.neighbors()) ctx.send(nb, Message{1});
    ctx.send(ctx.self(), Message{0});  // self-sends must never be filtered
  }
};

TEST(DeliveryFilter, DropsMatchingMessagesAndCountsThem) {
  graph::Graph g({0, 1, 2});
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  sim::Engine<Pinger> eng(std::move(g), Pinger{}, 1);
  // Drop everything addressed to node 2.
  eng.set_delivery_filter(
      [](sim::NodeId, sim::NodeId to, std::uint64_t) { return to != 2; });
  for (int r = 0; r < 10; ++r) eng.step_round();
  // Node 2 saw only its own self-sends (one per round, minus the first
  // round's empty inbox); node 0 receives normally.
  EXPECT_EQ(eng.state(2).received, 9);
  EXPECT_EQ(eng.state(0).received, 2 * 9);  // from 1 plus self, 9 rounds
  EXPECT_EQ(eng.metrics().messages_dropped(), 9u);
  // Removing the filter restores delivery.
  eng.set_delivery_filter({});
  eng.step_round();
  EXPECT_EQ(eng.metrics().messages_dropped(), 9u);
  EXPECT_EQ(eng.state(2).received, 9 + 2);
}

// --- timeline semantics ----------------------------------------------------

Scenario tiny_scenario() {
  Scenario sc;
  sc.name = "tiny";
  sc.n_guests = 64;
  sc.host_counts = {12};
  sc.families = {graph::Family::kRandomTree};
  sc.seed_lo = sc.seed_hi = 1;
  sc.max_rounds = 100000;
  return sc;
}

TEST(RunJob, ConvergedStartWithEmptyTimelineEndsImmediately) {
  util::set_log_level(util::LogLevel::kError);
  const Scenario sc = tiny_scenario();
  const auto r = campaign::run_job(sc, campaign::expand_jobs(sc)[0]);
  EXPECT_TRUE(r.setup_converged);
  EXPECT_GT(r.setup_rounds, 0u);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.rounds, 0u);  // nothing to do: already converged, no events
  EXPECT_TRUE(r.events.empty());
}

TEST(RunJob, EventsApplyAtTheirRoundsAndRecover) {
  util::set_log_level(util::LogLevel::kError);
  Scenario sc = tiny_scenario();
  sc.churn_at(0, 2).fault_at(50, 1);
  const auto r = campaign::run_job(sc, campaign::expand_jobs(sc)[0]);
  ASSERT_TRUE(r.setup_converged);
  EXPECT_TRUE(r.converged);
  ASSERT_EQ(r.events.size(), 2u);
  EXPECT_EQ(r.events[0].kind, EventKind::kChurn);
  EXPECT_EQ(r.events[0].round, 0u);
  EXPECT_TRUE(r.events[0].recovered);
  EXPECT_GT(r.events[0].recovery_rounds, 0u);
  EXPECT_EQ(r.events[1].kind, EventKind::kFault);
  EXPECT_EQ(r.events[1].round, 50u);
  EXPECT_TRUE(r.events[1].recovered);
  // The fault landed 50 rounds later; its recovery latency is measured
  // from its own application round.
  EXPECT_EQ(r.rounds, r.events[1].round + r.events[1].recovery_rounds);
  EXPECT_GT(r.resets, 0u);  // churn + fault force detector resets
}

TEST(RunJob, ColdStartConvergesAndReportsRounds) {
  util::set_log_level(util::LogLevel::kError);
  Scenario sc = tiny_scenario();
  sc.start = StartMode::kCold;
  const auto r = campaign::run_job(sc, campaign::expand_jobs(sc)[0]);
  EXPECT_TRUE(r.setup_converged);
  EXPECT_EQ(r.setup_rounds, 0u);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.rounds, 0u);
  EXPECT_GT(r.messages, 0u);
}

TEST(RunJob, ColdStartReportsInitialFinalAndPeakDegrees) {
  // The E3 bench's reading of a cold job: the hub of a 16-host star starts
  // at degree 15, and the peak bounds both the initial and final degrees.
  util::set_log_level(util::LogLevel::kError);
  Scenario sc;
  sc.n_guests = 64;
  sc.host_counts = {16};
  sc.families = {graph::Family::kStar};
  sc.seed_lo = sc.seed_hi = 3;
  sc.start = StartMode::kCold;
  campaign::JobRunner job(sc, campaign::expand_jobs(sc)[0]);
  job.run();
  const auto r = job.result();
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.rounds, 0u);
  const std::size_t initial = job.engine().metrics().initial_max_degree();
  EXPECT_EQ(initial, 15u);
  EXPECT_GE(r.peak_degree, job.engine().graph().max_degree());
  EXPECT_GE(r.peak_degree, initial);
}

TEST(RunJob, FullPartitionBlocksCrossTrafficThenHeals) {
  util::set_log_level(util::LogLevel::kError);
  Scenario sc = tiny_scenario();
  // A fault inside the partition keeps protocol traffic flowing while the
  // cut is up, so some of it must be dropped.
  sc.partition(0, 120);
  sc.fault_at(10, 2);
  const auto r = campaign::run_job(sc, campaign::expand_jobs(sc)[0]);
  ASSERT_TRUE(r.setup_converged);
  EXPECT_GT(r.messages_dropped, 0u);
  EXPECT_TRUE(r.converged) << "network must heal after the window closes";
  EXPECT_GE(r.rounds, 120u);  // the window must run its course
}

TEST(RunJob, TotalLossWindowDropsEverythingCrossHost) {
  util::set_log_level(util::LogLevel::kError);
  Scenario sc = tiny_scenario();
  sc.loss(0, 80, 1.0);
  sc.churn_at(5, 1);
  const auto r = campaign::run_job(sc, campaign::expand_jobs(sc)[0]);
  ASSERT_TRUE(r.setup_converged);
  EXPECT_GT(r.messages_dropped, 0u);
  EXPECT_TRUE(r.converged);
}

TEST(RunJob, RetargetRebuildsTheNewTopology) {
  util::set_log_level(util::LogLevel::kError);
  Scenario sc = tiny_scenario();
  sc.retarget_at(0, "hypercube");
  const auto r = campaign::run_job(sc, campaign::expand_jobs(sc)[0]);
  ASSERT_TRUE(r.setup_converged);
  EXPECT_TRUE(r.converged);
  ASSERT_EQ(r.events.size(), 1u);
  EXPECT_TRUE(r.events[0].recovered);
  EXPECT_GT(r.events[0].recovery_rounds, 0u);
}

TEST(RunJob, BuilderEventsOutOfOrderStillApplyInRoundOrder) {
  // The fluent builder does not sort; run_job must (parse_scenario already
  // does). Out-of-order declaration must not silently drop the earlier
  // event or spin the job to its round budget.
  util::set_log_level(util::LogLevel::kError);
  Scenario sc = tiny_scenario();
  sc.fault_at(50, 1).churn_at(0, 1);  // declared backwards
  const auto r = campaign::run_job(sc, campaign::expand_jobs(sc)[0]);
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.events.size(), 2u);
  EXPECT_EQ(r.events[0].kind, EventKind::kChurn);
  EXPECT_EQ(r.events[0].round, 0u);
  EXPECT_EQ(r.events[1].kind, EventKind::kFault);
  EXPECT_EQ(r.events[1].round, 50u);
  EXPECT_TRUE(r.events[0].recovered);
  EXPECT_TRUE(r.events[1].recovered);
  EXPECT_LT(r.rounds, sc.max_rounds);
}

// --- fault composition -----------------------------------------------------

// Overlapping adversarial primitives compose: the run must stay invariant-
// clean (oracle armed for the whole job, setup included), reconverge, and
// stay bit-for-bit identical at any engine worker count while every fault
// class is simultaneously active.

bool same_result(const campaign::JobResult& a, const campaign::JobResult& b);

campaign::JobResult run_probed(const Scenario& sc, std::size_t workers) {
  verify::OracleProbe probe;
  return campaign::run_job(sc, campaign::expand_jobs(sc)[0], workers, &probe);
}

TEST(FaultComposition, LossWindowOverlappingChurnBurstStaysOracleClean) {
  util::set_log_level(util::LogLevel::kError);
  Scenario sc = tiny_scenario();
  // The churn burst lands inside a lossy window: re-attachment and the
  // detector resets must survive 40% message loss.
  sc.loss(0, 200, 0.4).churn_at(50, 3);
  const auto base = run_probed(sc, 1);
  EXPECT_TRUE(base.oracle_armed);
  EXPECT_EQ(base.oracle_violation, "") << "@ round " << base.oracle_round;
  EXPECT_TRUE(base.converged);
  EXPECT_GT(base.messages_dropped, 0u);
  for (std::size_t workers : {2u, 8u}) {
    const auto wide = run_probed(sc, workers);
    EXPECT_TRUE(same_result(base, wide)) << "workers=" << workers;
    EXPECT_EQ(wide.oracle_violation, "");
    EXPECT_EQ(wide.oracle_rounds_checked, base.oracle_rounds_checked);
  }
}

TEST(FaultComposition, PartitionSpanningRetargetStaysOracleClean) {
  util::set_log_level(util::LogLevel::kError);
  Scenario sc = tiny_scenario();
  // The retarget fires while the network is bipartitioned: both halves
  // rebuild toward the new target with cross-traffic cut, then heal.
  sc.partition(0, 150).retarget_at(60, "hypercube");
  const auto base = run_probed(sc, 1);
  EXPECT_TRUE(base.oracle_armed);
  EXPECT_EQ(base.oracle_violation, "") << "@ round " << base.oracle_round;
  EXPECT_TRUE(base.converged);
  EXPECT_GT(base.messages_dropped, 0u);
  ASSERT_EQ(base.events.size(), 1u);
  EXPECT_TRUE(base.events[0].recovered);
  for (std::size_t workers : {2u, 8u}) {
    const auto wide = run_probed(sc, workers);
    EXPECT_TRUE(same_result(base, wide)) << "workers=" << workers;
    EXPECT_EQ(wide.oracle_violation, "");
  }
}

// --- determinism -----------------------------------------------------------

bool same_result(const campaign::JobResult& a, const campaign::JobResult& b) {
  return a.converged == b.converged && a.rounds == b.rounds &&
         a.messages == b.messages &&
         a.messages_dropped == b.messages_dropped && a.resets == b.resets &&
         a.edge_adds == b.edge_adds && a.edge_dels == b.edge_dels &&
         a.peak_degree == b.peak_degree && a.setup_rounds == b.setup_rounds &&
         a.degree_trace == b.degree_trace;
}

TEST(CampaignDeterminism, LossAndPartitionTracesIdenticalAcrossEngineWorkers) {
  // The acceptance criterion: with loss and partition events active, the
  // per-job trace is bit-for-bit identical at any set_worker_threads(k) —
  // the delivery filter runs in the engine's serial release phase, so the
  // PR 2 merge rule is undisturbed.
  util::set_log_level(util::LogLevel::kError);
  Scenario sc = tiny_scenario();
  sc.churn_at(0, 2).loss(5, 60, 0.3).partition(80, 140).fault_at(100, 1);
  const auto spec = campaign::expand_jobs(sc)[0];
  const auto base = campaign::run_job(sc, spec, 1);
  ASSERT_TRUE(base.converged);
  ASSERT_GT(base.messages_dropped, 0u);
  for (std::size_t workers : {2u, 8u}) {
    const auto wide = campaign::run_job(sc, spec, workers);
    EXPECT_TRUE(same_result(base, wide)) << "workers=" << workers;
  }
}

TEST(CampaignDeterminism, ReportBytesIdenticalAcrossJobThreadCounts) {
  util::set_log_level(util::LogLevel::kError);
  Scenario sc = tiny_scenario();
  sc.host_counts = {10, 12};
  sc.seed_lo = 1;
  sc.seed_hi = 3;
  sc.churn_at(0, 1).loss(5, 40, 0.25);
  campaign::RunOptions opts;
  opts.jobs = 1;
  const auto r1 = campaign::run_campaign(sc, opts);
  ASSERT_EQ(r1.jobs, 6u);
  EXPECT_EQ(r1.converged_jobs, r1.jobs);
  for (std::size_t jobs : {2u, 8u}) {
    opts.jobs = jobs;
    const auto rk = campaign::run_campaign(sc, opts);
    EXPECT_EQ(r1.to_json(), rk.to_json()) << "jobs=" << jobs;
  }
}

TEST(CampaignReport, AggregatesAndSerializesConsistently) {
  util::set_log_level(util::LogLevel::kError);
  Scenario sc = tiny_scenario();
  sc.seed_lo = 1;
  sc.seed_hi = 4;
  sc.churn_at(0, 1);
  campaign::RunOptions opts;
  opts.jobs = 2;
  const auto rep = campaign::run_campaign(sc, opts);
  ASSERT_EQ(rep.jobs, 4u);
  EXPECT_EQ(rep.converged_jobs, 4u);
  EXPECT_EQ(rep.events_total, 4u);
  EXPECT_EQ(rep.events_recovered, 4u);
  // Percentile sanity: min <= p50 <= p90 <= p99 <= max and mean in range.
  ASSERT_EQ(rep.aggregate.front().first, "rounds");
  const auto& s = rep.aggregate.front().second;
  EXPECT_LE(s.min, s.p50);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LE(s.p99, s.max);
  EXPECT_GE(s.mean, s.min);
  EXPECT_LE(s.mean, s.max);
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"scenario\": \"tiny\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"recovery_rounds\""), std::string::npos);
  EXPECT_EQ(json.find("degree_trace"), std::string::npos);  // memory-only
}

}  // namespace
}  // namespace chs
