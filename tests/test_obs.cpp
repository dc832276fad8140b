// Telemetry layer tests (DESIGN.md D12): the deterministic series recorder
// (windowed counter deltas, power-of-two downsampling, byte-identity across
// worker counts and checkpoint/resume), the flight recorder ring and its
// Chrome-trace export, the failure-dump path in run_campaign, and the
// describe annotations for the new OBSR blob section.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "graph/generators.hpp"
#include "obs/flight.hpp"
#include "obs/profiler.hpp"
#include "obs/series.hpp"
#include "persist/io.hpp"
#include "util/log.hpp"
#include "verify/oracle.hpp"

namespace chs {
namespace {

using campaign::Scenario;
using obs::FlightKind;
using obs::FlightRecorder;
using obs::SeriesRecorder;
using obs::SeriesSample;

// --- series recorder unit behavior ----------------------------------------

TEST(SeriesRecorder, WindowsAccumulateDeltasAndCloseAtStride) {
  SeriesRecorder rec(2, 8);
  SeriesSample reading;
  rec.prime(reading);
  auto feed = [&](std::uint64_t t, std::uint64_t dm, std::uint64_t open) {
    reading.messages += dm;
    reading.active += 1;
    reading.windows_open = open;
    rec.on_round(t, reading);
  };
  feed(0, 10, 0);
  EXPECT_TRUE(rec.samples().empty());  // window still open
  feed(1, 5, 1);
  ASSERT_EQ(rec.samples().size(), 1u);
  EXPECT_EQ(rec.samples()[0].round, 1u);  // labeled with its closing round
  EXPECT_EQ(rec.samples()[0].messages, 15u);  // deltas summed
  EXPECT_EQ(rec.samples()[0].active, 2u);
  EXPECT_EQ(rec.samples()[0].windows_open, 1u);  // gauge: max over window
  feed(2, 7, 0);
  EXPECT_EQ(rec.samples().size(), 1u);
  rec.flush(2);  // job ends mid-window: the partial window still lands
  ASSERT_EQ(rec.samples().size(), 2u);
  EXPECT_EQ(rec.samples()[1].round, 2u);
  EXPECT_EQ(rec.samples()[1].messages, 7u);
  rec.flush(2);  // nothing accumulated: idempotent
  EXPECT_EQ(rec.samples().size(), 2u);
}

TEST(SeriesRecorder, DownsamplingStaysBoundedAndConservesCounters) {
  // Every column of the table gets its own increments: counters climb by a
  // per-column, per-round step; gauges read a per-column value that peaks
  // once, early, so the peak must survive every pair-merge after it.
  constexpr std::size_t kCols = std::size(obs::kSeriesColumns);
  const std::uint64_t kRounds = 64;  // 64 windows into a ring of 4
  SeriesRecorder rec(1, 4);
  SeriesSample reading;
  reading.lat_hist.assign(obs::kLatBuckets, 0);
  rec.prime(reading);
  std::vector<std::uint64_t> fed(kCols, 0);  // counter total / gauge peak
  std::vector<std::uint64_t> hist_fed(obs::kLatBuckets, 0);
  for (std::uint64_t t = 0; t < kRounds; ++t) {
    for (std::size_t i = 0; i < kCols; ++i) {
      const obs::SeriesColumn& c = obs::kSeriesColumns[i];
      if (c.kind == obs::ColumnKind::kCounter) {
        const std::uint64_t step = (i + 1) * (1 + t % 3);
        reading.*c.field += step;
        fed[i] += step;
      } else {
        reading.*c.field = t == 5 ? 100 + i : t % (i + 2);
        fed[i] = std::max(fed[i], reading.*c.field);
      }
    }
    reading.lat_hist[t % obs::kLatBuckets] += t + 1;
    hist_fed[t % obs::kLatBuckets] += t + 1;
    rec.on_round(t, reading);
    ASSERT_LE(rec.samples().size(), 4u) << "ring bound violated at t=" << t;
  }
  rec.flush(kRounds - 1);
  ASSERT_LE(rec.samples().size(), 4u);
  ASSERT_GE(rec.samples().size(), 2u);
  EXPECT_GE(rec.effective_stride(), 8u);  // several pair-merges happened
  EXPECT_EQ(rec.configured_stride(), 1u);
  std::vector<std::uint64_t> got(kCols, 0);
  std::vector<std::uint64_t> hist_got(obs::kLatBuckets, 0);
  std::uint64_t last_round = 0;
  for (std::size_t j = 0; j < rec.samples().size(); ++j) {
    const SeriesSample& s = rec.samples()[j];
    if (j > 0) {
      EXPECT_GT(s.round, last_round);  // still in round order
    }
    last_round = s.round;
    for (std::size_t i = 0; i < kCols; ++i) {
      const obs::SeriesColumn& c = obs::kSeriesColumns[i];
      got[i] = c.kind == obs::ColumnKind::kCounter
                   ? got[i] + s.*c.field
                   : std::max(got[i], s.*c.field);
    }
    ASSERT_EQ(s.lat_hist.size(), obs::kLatBuckets);
    for (std::size_t b = 0; b < obs::kLatBuckets; ++b) {
      hist_got[b] += s.lat_hist[b];
    }
  }
  EXPECT_EQ(last_round, kRounds - 1);
  // Counters are deltas, so pairwise merging must conserve their totals;
  // gauges merge by max, so the largest value fed in is what survives.
  for (std::size_t i = 0; i < kCols; ++i) {
    EXPECT_EQ(got[i], fed[i]) << obs::kSeriesColumns[i].key;
  }
  EXPECT_EQ(hist_got, hist_fed);
}

// --- flight recorder ring and export ---------------------------------------

TEST(FlightRecorder, BoundedRingDropsOldestAndCounts) {
  FlightRecorder fl(4);
  for (std::uint64_t i = 0; i < 7; ++i) {
    fl.record(i, FlightKind::kWipe, /*a=*/i);
  }
  EXPECT_EQ(fl.total(), 7u);
  EXPECT_EQ(fl.dropped(), 3u);
  const auto ev = fl.events();
  ASSERT_EQ(ev.size(), 4u);
  // Oldest first, and the survivors are the most recent four.
  for (std::size_t i = 0; i < ev.size(); ++i) {
    EXPECT_EQ(ev[i].round, 3 + i);
    EXPECT_EQ(ev[i].a, 3 + i);
    EXPECT_EQ(ev[i].kind, FlightKind::kWipe);
  }
}

// Minimal structural JSON check: balanced braces/brackets outside strings,
// all strings closed. Enough to catch broken escaping or framing without a
// JSON library in the test tree.
bool json_well_formed(const std::string& s) {
  std::vector<char> stack;
  bool in_str = false, esc = false;
  for (char ch : s) {
    if (in_str) {
      if (esc) {
        esc = false;
      } else if (ch == '\\') {
        esc = true;
      } else if (ch == '"') {
        in_str = false;
      }
      continue;
    }
    if (ch == '"') {
      in_str = true;
    } else if (ch == '{' || ch == '[') {
      stack.push_back(ch);
    } else if (ch == '}' || ch == ']') {
      if (stack.empty()) return false;
      const char open = stack.back();
      stack.pop_back();
      if ((ch == '}') != (open == '{')) return false;
    }
  }
  return !in_str && stack.empty();
}

TEST(FlightRecorder, ChromeTraceRoundTripsThroughAParser) {
  FlightRecorder fl;
  fl.record(0, FlightKind::kJobStage, 0, 0, "timeline-begin");
  fl.record(5, FlightKind::kByzOpen, /*a=*/0, /*b=*/40, "liar");
  fl.record(7, FlightKind::kPhase, /*a=*/3, 0, "cbt->chord");
  fl.record(9, FlightKind::kMergeStage, /*a=*/3, 0, "none->proposed");
  // Notes with JSON metacharacters must be escaped, not corrupt the file.
  fl.record(12, FlightKind::kViolationReal, /*a=*/4, 0,
            "I4: \"quoted\" and back\\slash");
  fl.record(40, FlightKind::kByzClose, /*a=*/0, 0, "liar");
  const std::string json = fl.to_chrome_trace();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // The byz window became a B/E duration pair; everything else instants.
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("cbt->chord"), std::string::npos);
  // And the text dump names every kind it holds.
  const std::string text = fl.to_text();
  EXPECT_NE(text.find("byz-open"), std::string::npos);
  EXPECT_NE(text.find("violation"), std::string::npos);
}

// --- campaign series: determinism and gating -------------------------------

Scenario obs_scenario() {
  Scenario sc;
  sc.name = "obs";
  sc.n_guests = 64;
  sc.host_counts = {12};
  sc.families = {graph::Family::kRandomTree};
  sc.seed_lo = sc.seed_hi = 1;
  sc.max_rounds = 100000;
  sc.series(4, 64);
  sc.churn_at(0, 2).loss(5, 40, 0.3);
  return sc;
}

TEST(ObsSeries, ScenarioDirectiveParsesValidatesAndRoundTrips) {
  std::string error;
  const auto sc = campaign::parse_scenario("series 4 64\nat 0 churn 1\n",
                                           &error);
  ASSERT_TRUE(sc.has_value()) << error;
  EXPECT_EQ(sc->series_stride, 4u);
  EXPECT_EQ(sc->series_cap, 64u);
  const auto again = campaign::parse_scenario(sc->to_text(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(*again, *sc);
  // Unarmed scenarios keep their exact pre-D12 text bytes: no series line.
  const auto off = campaign::parse_scenario("at 0 churn 1\n", &error);
  ASSERT_TRUE(off.has_value()) << error;
  EXPECT_EQ(off->to_text().find("series"), std::string::npos);
  // Cap must be a power of two >= 2; stride >= 1.
  EXPECT_FALSE(campaign::parse_scenario("series 4 48\n", &error));
  EXPECT_FALSE(campaign::parse_scenario("series 0\n", &error));
  EXPECT_FALSE(campaign::parse_scenario("series 4 1\n", &error));
}

TEST(ObsSeries, ByteIdenticalAcrossEngineWorkersWithFaultsActive) {
  util::set_log_level(util::LogLevel::kError);
  const Scenario sc = obs_scenario();
  const auto spec = campaign::expand_jobs(sc)[0];
  verify::OracleConfig ocfg;
  ocfg.hard_fail = false;
  const auto base = campaign::run_job(sc, spec, 1, ocfg);
  ASSERT_TRUE(base.converged);
  ASSERT_TRUE(base.series_armed);
  ASSERT_FALSE(base.series.empty());
  ASSERT_GT(base.messages_dropped, 0u);  // the loss window really fired
  // The samples cover the timeline in order and saw real traffic.
  std::uint64_t messages = 0;
  for (std::size_t i = 1; i < base.series.size(); ++i) {
    EXPECT_GT(base.series[i].round, base.series[i - 1].round);
  }
  for (const auto& s : base.series) messages += s.messages;
  EXPECT_GT(messages, 0u);
  EXPECT_GE(base.series_stride, 4u);  // effective stride, >= configured
  for (const std::size_t workers : {2u, 8u}) {
    const auto wide = campaign::run_job(sc, spec, workers, ocfg);
    EXPECT_EQ(wide.series, base.series) << "workers=" << workers;
    EXPECT_EQ(wide.series_stride, base.series_stride);
  }
}

TEST(ObsSeries, JsonBlockGatedOnArming) {
  util::set_log_level(util::LogLevel::kError);
  Scenario armed = obs_scenario();
  const auto rep = campaign::run_campaign(armed, {});
  const std::string json = rep.to_json();
  EXPECT_TRUE(json_well_formed(json));
  EXPECT_NE(json.find("\"series\": {\"stride\": "), std::string::npos);
  EXPECT_NE(json.find("\"windows_open\""), std::string::npos);

  Scenario off = obs_scenario();
  off.series_stride = 0;  // recorder off
  const std::string off_json = campaign::run_campaign(off, {}).to_json();
  EXPECT_EQ(off_json.find("\"series\""), std::string::npos)
      << "unarmed reports must keep their pre-D12 bytes";
  EXPECT_EQ(off_json.find("\"perf\""), std::string::npos)
      << "wall-clock perf must never appear unarmed";
}

// The series CSV as printed (header first), split into cells.
std::vector<std::vector<std::string>> series_csv(
    const campaign::CampaignReport& rep) {
  testing::internal::CaptureStdout();
  rep.series_table().print_csv("series");
  std::istringstream in(testing::internal::GetCapturedStdout());
  std::vector<std::vector<std::string>> rows;
  std::string line;
  std::getline(in, line);  // "# csv series"
  while (std::getline(in, line)) {
    std::vector<std::string> cells;
    std::istringstream cs(line);
    for (std::string cell; std::getline(cs, cell, ',');) cells.push_back(cell);
    rows.push_back(cells);
  }
  return rows;
}

// Every series sample of a JSON report as key -> value text, in job then
// sample order, with the owning job's index under "job".
std::vector<std::map<std::string, std::string>> json_samples(
    const std::string& json) {
  std::vector<std::map<std::string, std::string>> out;
  const std::string open = "{\"round\": ", job_key = "{\"job\": ";
  for (std::size_t at = json.find(open); at != std::string::npos;
       at = json.find(open, at + 1)) {
    std::map<std::string, std::string> m;
    const std::size_t job = json.rfind(job_key, at) + job_key.size();
    m["job"] = json.substr(job, json.find(',', job) - job);
    const std::string body = json.substr(at + 1, json.find('}', at) - at - 1);
    for (std::size_t p = 0; p < body.size();) {
      std::size_t q = body.find(", ", p);
      if (q == std::string::npos) q = body.size();
      const std::string kv = body.substr(p, q - p);
      const std::size_t colon = kv.find("\": ");
      m[kv.substr(1, colon - 1)] = kv.substr(colon + 3);
      p = q + 2;
    }
    out.push_back(m);
  }
  return out;
}

void expect_series_csv(const campaign::CampaignReport& rep,
                       const std::vector<std::string>& header) {
  const auto csv = series_csv(rep);
  ASSERT_FALSE(csv.empty());
  EXPECT_EQ(csv[0], header);
  const auto samples = json_samples(rep.to_json());
  ASSERT_FALSE(samples.empty());
  ASSERT_EQ(csv.size() - 1, samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& row = csv[i + 1];
    ASSERT_EQ(row.size(), header.size());
    EXPECT_EQ(samples[i].size(), header.size()) << "sample " << i;
    for (std::size_t k = 0; k < header.size(); ++k) {
      const auto it = samples[i].find(header[k]);
      ASSERT_NE(it, samples[i].end()) << header[k];
      EXPECT_EQ(row[k], it->second) << "sample " << i << ", " << header[k];
    }
  }
}

TEST(ObsSeries, CsvPinsColumnOrderAndMatchesJsonCellForCell) {
  util::set_log_level(util::LogLevel::kError);
  std::vector<std::string> header = {
      "job",       "round",     "active",     "actions",     "messages",
      "dropped",   "snapshots", "contained",  "violations",  "windows_open"};
  Scenario series_only = obs_scenario();
  series_only.seed_hi = 2;
  expect_series_csv(campaign::run_campaign(series_only, {}), header);

  for (const char* c : {"issued", "completed", "timeouts", "retried",
                        "inflight", "kv_messages", "lat_p50", "lat_p99",
                        "availability"}) {
    header.push_back(c);
  }
  Scenario serving = obs_scenario();
  serving.name = "obs-serving";
  serving.seed_hi = 2;
  serving.serve(0, 40, 6);
  serving.workload.keys = 256;
  serving.workload.put_fraction = 0.2;
  serving.workload.prefill = 256;
  ASSERT_EQ(serving.validate(), "");
  expect_series_csv(campaign::run_campaign(serving, {}), header);
}

TEST(ObsSeries, MidWindowJobCheckpointResumesBitForBit) {
  // Snapshot at timeline round 10: 10 % stride(4) == 2, so the recorder has
  // an open half-filled window, and the Byzantine window [5, 40) is live —
  // the resumed run must reproduce the identical series anyway, at any
  // worker count.
  util::set_log_level(util::LogLevel::kError);
  Scenario sc = obs_scenario();
  sc.name = "obs-midwin";
  sc.byz(5, 40, 0.25);
  ASSERT_EQ(sc.validate(), "");
  const auto spec = campaign::expand_jobs(sc)[0];
  verify::OracleConfig ocfg;
  ocfg.hard_fail = false;

  campaign::JobRunner donor(sc, spec, 1, ocfg);
  std::vector<std::uint8_t> snapshot;
  donor.run([&](campaign::JobRunner& jr) {
    if (snapshot.empty() && jr.in_timeline() && jr.timeline_round() == 10) {
      persist::Writer w(persist::BlobKind::kJob);
      jr.checkpoint(w);
      snapshot = w.take();
    }
    return true;
  });
  ASSERT_TRUE(donor.finished());
  const auto want = donor.result();
  ASSERT_FALSE(snapshot.empty());
  ASSERT_TRUE(want.series_armed);
  ASSERT_FALSE(want.series.empty());
  bool saw_open_window = false;
  for (const auto& s : want.series) saw_open_window |= s.windows_open > 0;
  EXPECT_TRUE(saw_open_window) << "the byz window never showed in the gauge";

  for (const std::size_t workers : {1u, 2u}) {
    campaign::JobRunner resumed(sc, spec, workers, ocfg);
    persist::Reader r(snapshot);
    ASSERT_TRUE(r.expect_header(persist::BlobKind::kJob).ok);
    ASSERT_TRUE(resumed.restore(r).ok);
    resumed.run();
    const auto got = resumed.result();
    EXPECT_EQ(got.series, want.series) << "workers=" << workers;
    EXPECT_EQ(got.series_stride, want.series_stride);
    EXPECT_EQ(got.converged, want.converged);
    EXPECT_EQ(got.rounds, want.rounds);
    EXPECT_EQ(got.messages, want.messages);
  }
}

TEST(ObsSeries, CampaignHaltResumeKeepsReportBytes) {
  // The campaign-level path: the OBSR section rides the checkpoint file,
  // and a run interrupted mid-series-window resumes to the identical JSON.
  util::set_log_level(util::LogLevel::kError);
  Scenario sc = obs_scenario();
  sc.name = "obs-resume";
  const std::string straight = campaign::run_campaign(sc, {}).to_json();
  ASSERT_NE(straight.find("\"series\""), std::string::npos);

  campaign::RunOptions halt;
  halt.checkpoint_path = testing::TempDir() + "obs_resume_ck.bin";
  halt.checkpoint_every = 10;  // not a multiple of the series stride's phase
  halt.halt_after_checkpoints = 2;
  const auto partial = campaign::run_campaign(sc, halt);
  ASSERT_TRUE(partial.halted);

  campaign::RunOptions resume;
  resume.jobs = 2;
  resume.resume_path = halt.checkpoint_path;
  const auto rep = campaign::run_campaign(sc, resume);
  EXPECT_FALSE(rep.halted);
  EXPECT_EQ(rep.to_json(), straight);
}

// --- flight recorder wiring: failure dumps and violation narration ---------

TEST(ObsFlight, CampaignDumpsTraceAndReproOnFailedJob) {
  util::set_log_level(util::LogLevel::kError);
  Scenario sc;
  sc.name = "obs-dump";
  sc.n_guests = 64;
  sc.host_counts = {12};
  sc.families = {graph::Family::kRandomTree};
  sc.seed_lo = sc.seed_hi = 1;
  sc.max_rounds = 30;  // a 2-host churn cannot heal in 30 rounds
  sc.churn_at(0, 2);
  ASSERT_EQ(sc.validate(), "");

  campaign::RunOptions opts;
  opts.flight_dir = testing::TempDir();
  const auto rep = campaign::run_campaign(sc, opts);
  ASSERT_EQ(rep.jobs, 1u);
  ASSERT_EQ(rep.converged_jobs, 0u);  // the dump trigger

  const std::string stem = opts.flight_dir + "/" + sc.name + "_job0";
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(persist::read_file(stem + ".trace.json", bytes).ok);
  const std::string trace(bytes.begin(), bytes.end());
  EXPECT_TRUE(json_well_formed(trace));
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  // The .scn repro next to it reproduces the scenario byte-for-byte.
  std::string error;
  const auto again = campaign::load_scenario(stem + ".scn", &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->to_text(), sc.to_text());

  // A healthy job leaves no dump behind.
  Scenario ok = sc;
  ok.name = "obs-nodump";
  ok.max_rounds = 100000;
  const auto rep_ok = campaign::run_campaign(ok, opts);
  ASSERT_EQ(rep_ok.converged_jobs, 1u);
  EXPECT_FALSE(
      persist::read_file(opts.flight_dir + "/" + ok.name + "_job0.trace.json",
                         bytes)
          .ok);
}

std::unique_ptr<core::StabEngine> tree_engine() {
  util::Rng rng(3);
  auto ids = graph::sample_ids(10, 64, rng);
  core::Params p;
  p.n_guests = 64;
  return core::make_engine(graph::make_random_tree(ids, rng), p, 3);
}

TEST(ObsFlight, OracleNarratesInjectedViolationIntoTheRing) {
  // Same corruption recipe as the oracle tests: freeze the protocol so
  // nothing repairs the injected fault, then check the ring carries the
  // violation with the same text as the oracle's verdict.
  util::set_log_level(util::LogLevel::kError);
  auto eng = tree_engine();
  ASSERT_TRUE(core::run_to_convergence(*eng, 400000).converged);
  eng->protocol().set_frozen(true);
  FlightRecorder fl;
  verify::InvariantOracle oracle(*eng, {.hard_fail = false});
  oracle.set_flight(&fl);
  ASSERT_FALSE(oracle.violation().has_value());
  const graph::NodeId victim = eng->graph().ids().front();
  for (graph::NodeId nb : eng->graph().neighbors(victim)) {
    eng->inject_edge_removal(victim, nb);
  }
  eng->step_round();
  ASSERT_TRUE(oracle.violation().has_value());
  bool narrated = false;
  for (const auto& ev : fl.events()) {
    if (ev.kind == FlightKind::kViolationReal) {
      narrated = true;
      EXPECT_EQ(ev.note, oracle.violation()->what);
      EXPECT_EQ(ev.round, oracle.violation()->round);
    }
  }
  EXPECT_TRUE(narrated);
}

// --- profiler gating and describe annotations ------------------------------

TEST(ObsPerf, ProfileAccumulatesButNeverTouchesReportJson) {
  util::set_log_level(util::LogLevel::kError);
  const Scenario sc = obs_scenario();
  const std::string unprofiled = campaign::run_campaign(sc, {}).to_json();
  campaign::RunOptions opts;
  opts.profile = true;
  const auto rep = campaign::run_campaign(sc, opts);
  EXPECT_GT(rep.perf.rounds, 0u);
  EXPECT_GT(rep.perf.total_ns(), 0u);
  const std::string json = rep.to_json();
  EXPECT_TRUE(json_well_formed(json));
  EXPECT_NE(json.find("\"perf\""), std::string::npos);
  // Everything before the perf block is byte-identical to the unprofiled
  // report: wall clock only ever lands in the explicitly armed tail block.
  const auto cut = json.find(",\n  \"perf\"");
  ASSERT_NE(cut, std::string::npos);
  EXPECT_EQ(json.substr(0, cut), unprofiled.substr(0, cut));
  // The text table names every phase.
  const std::string text = obs::perf_text(rep.perf);
  for (const char* phase : {"scan", "step", "apply", "publish", "observer"}) {
    EXPECT_NE(text.find(phase), std::string::npos) << phase;
  }
  EXPECT_TRUE(json_well_formed(obs::perf_json(rep.perf)));
}

TEST(ObsDescribe, JobBlobSectionsCarryNotesIncludingObsr) {
  util::set_log_level(util::LogLevel::kError);
  const Scenario sc = obs_scenario();
  const auto spec = campaign::expand_jobs(sc)[0];
  campaign::JobRunner runner(sc, spec);
  runner.run([&](campaign::JobRunner& jr) {
    return !(jr.in_timeline() && jr.timeline_round() >= 10);
  });
  persist::Writer w(persist::BlobKind::kJob);
  runner.checkpoint(w);
  const auto blob = w.take();
  const std::string text = persist::describe(blob);
  EXPECT_NE(text.find("OBSR"), std::string::npos);
  EXPECT_NE(text.find("telemetry series recorder"), std::string::npos);
  EXPECT_NE(text.find("job loop state"), std::string::npos);
  // Every tag this repo writes has a note; nothing in a fresh blob may be
  // flagged unknown — that marker is reserved for foreign/newer files.
  EXPECT_EQ(text.find("UNKNOWN TAG"), std::string::npos) << text;
}

}  // namespace
}  // namespace chs
