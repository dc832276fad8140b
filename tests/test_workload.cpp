// The serving layer (DESIGN.md D13): the open-loop workload grammar, the
// Zipf sampler, the data-plane bug fixes that made it possible (attributable
// drops at down hosts, bounded completion logs; ack routing to the client's
// range is pinned in test_dht.cpp), the campaign bar — byte-identical
// reports at any worker count and across a mid-workload checkpoint/resume —
// and replica failover, including the committed kv_failover.scn.
#include <gtest/gtest.h>

#include <map>

#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "core/churn.hpp"
#include "dht/workload.hpp"
#include "graph/generators.hpp"
#include "persist/fields.hpp"
#include "util/log.hpp"

namespace chs {
namespace {

using campaign::JobSpec;
using campaign::Scenario;
using campaign::StartMode;

std::vector<std::uint8_t> result_bytes(const campaign::JobResult& r) {
  persist::Writer w(persist::BlobKind::kRaw);
  w.begin_section(persist::tag4("TEST"));
  w(r);
  w.end_section();
  return w.take();
}

// --- scenario grammar -------------------------------------------------------

TEST(WorkloadScenario, ParsesAllFieldsAndRoundTrips) {
  const char* text = R"(
name serving
guests 64
hosts 12
families random_tree
seeds 1 1
max-rounds 100000
series 8
workload 0 120 50 4096 0.99 0.1 3 0 1024
)";
  std::string error;
  const auto sc = campaign::parse_scenario(text, &error);
  ASSERT_TRUE(sc.has_value()) << error;
  EXPECT_TRUE(sc->workload_armed());
  EXPECT_EQ(sc->workload.begin, 0u);
  EXPECT_EQ(sc->workload.end, 120u);
  EXPECT_EQ(sc->workload.rate, 50u);
  EXPECT_EQ(sc->workload.keys, 4096u);
  EXPECT_DOUBLE_EQ(sc->workload.zipf, 0.99);
  EXPECT_DOUBLE_EQ(sc->workload.put_fraction, 0.1);
  EXPECT_EQ(sc->workload.replicas, 3u);
  EXPECT_EQ(sc->workload.timeout, 0u);
  EXPECT_EQ(sc->workload.prefill, 1024u);
  EXPECT_EQ(sc->validate(), "");
  // The text format is its own fixed point.
  const std::string out = sc->to_text();
  const auto again = campaign::parse_scenario(out, &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->to_text(), out);
  // A workload-free scenario emits no workload line at all.
  Scenario plain;
  plain.name = "plain";
  EXPECT_EQ(plain.to_text().find("workload"), std::string::npos);
}

TEST(WorkloadScenario, ShortFormUsesDefaults) {
  std::string error;
  const auto sc = campaign::parse_scenario(
      "name s\nguests 64\nhosts 10\nseries 4\nworkload 0 50 10\n", &error);
  ASSERT_TRUE(sc.has_value()) << error;
  EXPECT_TRUE(sc->workload_armed());
  EXPECT_EQ(sc->workload.rate, 10u);
  EXPECT_EQ(sc->validate(), "");
}

TEST(WorkloadScenario, ValidationCatchesBadSpecs) {
  Scenario sc;
  sc.name = "bad";
  sc.n_guests = 64;
  sc.host_counts = {10};
  sc.series_stride = 4;
  sc.serve(0, 50, 10);
  ASSERT_EQ(sc.validate(), "");

  Scenario cold = sc;
  cold.start = StartMode::kCold;  // no converged network to snapshot
  EXPECT_NE(cold.validate(), "");

  Scenario no_series = sc;
  no_series.series_stride = 0;  // latency/availability need series windows
  EXPECT_NE(no_series.validate(), "");

  Scenario empty_window = sc;
  empty_window.workload.begin = 50;
  empty_window.workload.end = 50;
  EXPECT_NE(empty_window.validate(), "");

  Scenario bad_puts = sc;
  bad_puts.workload.put_fraction = 1.5;
  EXPECT_NE(bad_puts.validate(), "");

  Scenario bad_replicas = sc;
  bad_replicas.workload.replicas = 0;
  EXPECT_NE(bad_replicas.validate(), "");

  Scenario wide_replicas = sc;
  wide_replicas.workload.replicas = 65;  // more replicas than guests
  EXPECT_NE(wide_replicas.validate(), "");

  Scenario fat_prefill = sc;
  fat_prefill.workload.prefill = sc.workload.keys + 1;
  EXPECT_NE(fat_prefill.validate(), "");
}

// --- Zipf sampler -----------------------------------------------------------

TEST(Zipf, SkewedDrawsFavorLowRanksAndStayInRange) {
  dht::ZipfSampler zipf(1000, 0.99);
  util::Rng rng(42);
  std::map<std::uint64_t, std::uint64_t> counts;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k = zipf(rng);
    ASSERT_LT(k, 1000u);
    ++counts[k];
  }
  // Rank 0 must dominate the tail decisively under s ~ 1.
  EXPECT_GT(counts[0], 1000u);
  EXPECT_GT(counts[0], counts[100] * 5);
}

TEST(Zipf, ZeroExponentIsUniformAndDeterministic) {
  dht::ZipfSampler zipf(64, 0.0);
  util::Rng a(7), b(7);
  std::map<std::uint64_t, std::uint64_t> counts;
  for (int i = 0; i < 6400; ++i) {
    const std::uint64_t k = zipf(a);
    EXPECT_EQ(k, zipf(b));  // same stream, same draws
    ASSERT_LT(k, 64u);
    ++counts[k];
  }
  for (const auto& [k, c] : counts) EXPECT_LT(c, 400u) << "rank " << k;
}

// --- data-plane fixes -------------------------------------------------------

constexpr std::uint64_t kGuests = 256;
constexpr std::size_t kHosts = 32;

std::unique_ptr<core::StabEngine> converged_engine(std::uint64_t seed) {
  util::Rng rng(seed);
  auto ids = graph::sample_ids(kHosts, kGuests, rng);
  core::Params p;
  p.n_guests = kGuests;
  auto e = core::make_engine(core::scaffold_graph(ids, kGuests), p, seed);
  core::install_legal_cbt(*e, core::Phase::kChord);
  const auto res = core::run_to_convergence(*e, 100000);
  CHS_CHECK_MSG(res.converged, "fixture engine failed to converge");
  return e;
}

TEST(KvAccounting, DownHostDropsAreCountedNotSilent) {
  util::set_log_level(util::LogLevel::kError);
  auto eng = converged_engine(12);
  auto kv = dht::make_kv_engine(*eng, 9);
  const graph::NodeId victim = kv->graph().ids().front();
  // Queue a client op on the victim, then take it down before it can fire:
  // the op must land in dropped_ops, not vanish.
  dht::KvProtocol::Message m;
  m.kind = dht::KvProtocol::Message::Kind::kGet;
  m.op_id = 1;
  m.key = 3;
  m.target = dht::replica_guest(3, 0, 1, kGuests);
  m.origin = victim;
  m.reply_home = kv->state(victim).lo;
  kv->state_mut(victim).to_send.push_back(m);
  kv->state_mut(victim).down = true;
  kv->republish(victim);
  kv->step_round();
  EXPECT_EQ(kv->state(victim).dropped_ops, 1u);
  EXPECT_GE(dht::total_drops(*kv), 1u);
}

TEST(KvAccounting, CompletionLogsStayBoundedOverManyOps) {
  // Satellite fix: the driver drains every host's completion log each
  // round, so the per-host logs (and live bytes) must not grow with op
  // count. With the key space full, re-putting the same keys adds no
  // storage either.
  util::set_log_level(util::LogLevel::kError);
  auto eng = converged_engine(13);
  dht::WorkloadConfig wc;
  wc.end = 200;
  wc.rate = 8;
  wc.keys = 64;
  wc.put_fraction = 0.5;
  wc.replicas = 3;
  wc.prefill = 64;
  dht::WorkloadDriver wl(*eng, wc, /*job_seed=*/21, /*max_delay=*/1);
  const auto live = [&wl] {
    std::uint64_t n = 0;
    for (graph::NodeId id : wl.engine().graph().ids()) {
      n += wl.engine().state(id).live_bytes();
    }
    return n;
  };
  const std::uint64_t full = live();
  std::uint64_t t = 0;
  while (!wl.idle(t)) {
    wl.on_timeline_round(t++, *eng);
    for (graph::NodeId id : wl.engine().graph().ids()) {
      ASSERT_TRUE(wl.engine().state(id).completed.empty())
          << "host " << id << " round " << t;
    }
    ASSERT_LE(live(), full) << "round " << t;
  }
  EXPECT_EQ(wl.totals().issued, 200u * 8u);
  EXPECT_EQ(wl.totals().completed, wl.totals().issued);
}

// --- the open-loop campaign bar ---------------------------------------------

Scenario serving_scenario() {
  Scenario sc;
  sc.name = "serving";
  sc.n_guests = 64;
  sc.host_counts = {16};
  sc.families = {graph::Family::kRandomTree};
  sc.seed_lo = sc.seed_hi = 1;
  sc.max_rounds = 100000;
  sc.series_stride = 8;
  // Gets with occasional puts over a churn burst and a loss window: ops
  // must retry around down primaries and detour lost hops, and every drop
  // must be attributed.
  sc.serve(0, 40, 6);
  sc.workload.keys = 256;
  sc.workload.zipf = 0.9;
  sc.workload.put_fraction = 0.2;
  sc.workload.replicas = 2;
  sc.workload.prefill = 256;
  sc.churn_at(5, 3);
  sc.loss(10, 25, 0.3);
  return sc;
}

TEST(WorkloadJob, ServesTrafficThroughChurnAndReportsIt) {
  util::set_log_level(util::LogLevel::kError);
  const Scenario sc = serving_scenario();
  ASSERT_EQ(sc.validate(), "");
  const auto r = campaign::run_job(sc, campaign::expand_jobs(sc)[0]);
  ASSERT_TRUE(r.converged);
  EXPECT_TRUE(r.workload_armed);
  EXPECT_EQ(r.wl_issued, 40u * 6u);
  EXPECT_GT(r.wl_completed, 0u);
  EXPECT_GT(r.wl_hits, 0u);
  EXPECT_EQ(r.wl_completed + r.wl_timeouts, r.wl_issued);
  EXPECT_GT(r.wl_peak_inflight, 0u);
  EXPECT_GE(r.wl_p99, r.wl_p50);
  // The series windows carry the per-phase serving view.
  ASSERT_TRUE(r.series_armed);
  ASSERT_FALSE(r.series.empty());
  std::uint64_t issued = 0, completed = 0;
  for (const obs::SeriesSample& s : r.series) {
    issued += s.ops_issued;
    completed += s.ops_completed;
  }
  EXPECT_EQ(issued, r.wl_issued);
  EXPECT_EQ(completed, r.wl_completed);
}

TEST(WorkloadDeterminism, ResultBytesIdenticalAcrossEngineWorkers) {
  util::set_log_level(util::LogLevel::kError);
  const Scenario sc = serving_scenario();
  const auto spec = campaign::expand_jobs(sc)[0];
  const auto want = result_bytes(campaign::run_job(sc, spec, 1));
  for (const std::size_t workers : {2u, 8u}) {
    EXPECT_EQ(result_bytes(campaign::run_job(sc, spec, workers)), want)
        << "workers=" << workers;
  }
}

TEST(WorkloadDeterminism, MidWorkloadResumeIsByteIdentical) {
  // The tentpole's checkpoint claim: snapshot while ops are in flight and
  // fault windows are open, resume at several worker counts, and demand
  // the finished result byte-for-byte.
  util::set_log_level(util::LogLevel::kError);
  const Scenario sc = serving_scenario();
  const auto jobs = campaign::expand_jobs(sc);

  std::vector<std::uint8_t> snapshot;
  std::uint64_t inflight_at_snapshot = 0;
  campaign::JobRunner donor(sc, jobs[0]);
  donor.run([&](campaign::JobRunner& jr) {
    if (snapshot.empty() && jr.in_timeline() && jr.timeline_round() == 15) {
      persist::Writer w(persist::BlobKind::kJob);
      jr.checkpoint(w);
      snapshot = w.take();
    }
    return true;
  });
  ASSERT_TRUE(donor.finished());
  const auto want = result_bytes(donor.result());
  ASSERT_FALSE(snapshot.empty());
  ASSERT_GT(donor.result().wl_issued, 0u);

  for (const std::size_t workers : {1u, 2u, 8u}) {
    campaign::JobRunner resumed(sc, jobs[0], workers);
    persist::Reader r(snapshot);
    ASSERT_TRUE(r.expect_header(persist::BlobKind::kJob).ok);
    const auto s = resumed.restore(r);
    ASSERT_TRUE(s.ok) << s.error;
    ASSERT_TRUE(r.expect_end().ok);
    resumed.run();
    EXPECT_EQ(result_bytes(resumed.result()), want)
        << "mid-workload resume diverged at " << workers << " workers";
  }
  (void)inflight_at_snapshot;
}

TEST(WorkloadDeterminism, ReportBytesIdenticalAcrossJobThreadCounts) {
  util::set_log_level(util::LogLevel::kError);
  Scenario sc = serving_scenario();
  sc.seed_lo = 1;
  sc.seed_hi = 3;
  campaign::RunOptions opts;
  opts.jobs = 1;
  const auto r1 = campaign::run_campaign(sc, opts);
  ASSERT_EQ(r1.jobs, 3u);
  const auto json = r1.to_json();
  EXPECT_NE(json.find("\"workload\""), std::string::npos);
  EXPECT_NE(json.find("\"availability\""), std::string::npos);
  for (const std::size_t jobs : {2u, 4u}) {
    opts.jobs = jobs;
    const auto rk = campaign::run_campaign(sc, opts);
    EXPECT_EQ(rk.to_json(), json) << "jobs=" << jobs;
  }
  // Per-sample workload fields appear in the JSON series block.
  EXPECT_NE(json.find("\"kv_messages\""), std::string::npos);
  EXPECT_NE(json.find("\"inflight\""), std::string::npos);
}

TEST(WorkloadFailover, LossyWindowForcesRetriesThatStillComplete) {
  // Heavy loss mid-window with the control plane converged throughout: the
  // serving set stays live, so expired gets must retry on the next replica
  // position with a fresh client instead of dying — and traffic issued
  // after the window heals must complete cleanly.
  util::set_log_level(util::LogLevel::kError);
  Scenario sc = serving_scenario();
  sc.name = "failover";
  sc.events.clear();
  sc.losses.clear();
  sc.workload.end = 160;
  sc.workload.replicas = 3;
  sc.loss(10, 60, 0.6);
  const auto r = campaign::run_job(sc, campaign::expand_jobs(sc)[0]);
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.wl_retries, 0u) << "lossy window never exercised get failover";
  EXPECT_GT(r.wl_completed, r.wl_issued / 2);
  // The tail of the run (post-heal) serves cleanly again.
  ASSERT_FALSE(r.series.empty());
  std::uint64_t tail_completed = 0;
  for (std::size_t i = r.series.size() >= 8 ? r.series.size() - 8 : 0;
       i < r.series.size(); ++i) {
    tail_completed += r.series[i].ops_completed;
  }
  EXPECT_GT(tail_completed, 0u) << "no completions after the window healed";
  // Determinism holds under failover pressure too.
  const auto spec = campaign::expand_jobs(sc)[0];
  const auto want = result_bytes(campaign::run_job(sc, spec, 1));
  for (const std::size_t workers : {2u, 8u}) {
    EXPECT_EQ(result_bytes(campaign::run_job(sc, spec, workers)), want)
        << "workers=" << workers;
  }
}

TEST(WorkloadFailover, FrozenFaultsFailOverAcrossReplicas) {
  // The committed host-failure read experiment: freeze the converged
  // network, wipe 9 of 48 hosts, read 64 prefilled keys once. Every get is
  // settled and every completion finds its value; at 3 replicas reads fail
  // over, and at 1 replica strictly more of them time out.
  util::set_log_level(util::LogLevel::kError);
  std::string error;
  const auto sc = campaign::load_scenario(
      std::string(CHS_SOURCE_DIR) + "/examples/scenarios/kv_failover.scn",
      &error);
  ASSERT_TRUE(sc.has_value()) << error;
  ASSERT_EQ(sc->workload.replicas, 3u);
  Scenario single = *sc;
  single.workload.replicas = 1;
  const auto r3 = campaign::run_campaign(*sc);
  const auto r1 = campaign::run_campaign(single);
  ASSERT_EQ(r3.results.size(), r1.results.size());
  ASSERT_FALSE(r3.results.empty());
  for (std::size_t i = 0; i < r3.results.size(); ++i) {
    for (const campaign::JobResult* r : {&r3.results[i], &r1.results[i]}) {
      EXPECT_TRUE(r->converged) << "job " << i;
      EXPECT_GT(r->wl_issued, 0u) << "job " << i;
      EXPECT_EQ(r->wl_completed + r->wl_timeouts, r->wl_issued) << "job " << i;
      EXPECT_EQ(r->wl_hits, r->wl_completed) << "job " << i;
    }
    EXPECT_GT(r3.results[i].wl_retries, 0u) << "job " << i;
    EXPECT_GT(r1.results[i].wl_timeouts, r3.results[i].wl_timeouts)
        << "job " << i;
  }
}

}  // namespace
}  // namespace chs
