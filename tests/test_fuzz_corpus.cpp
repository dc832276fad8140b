// Coverage-guided fuzzing (DESIGN.md D14): corpus, mutation, fitness
// scheduling, checkpoint corpus binding — plus the regression tests for the
// stale-deletion-certificate race the first guided soak surfaced.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "verify/fuzzer.hpp"
#include "verify/minimize.hpp"
#include "verify/oracle.hpp"

namespace chs {
namespace {

namespace fs = std::filesystem;
using campaign::Scenario;
using verify::FuzzOptions;
using verify::FuzzReport;

std::string repo_path(const std::string& rel) {
  return std::string(CHS_SOURCE_DIR) + "/" + rel;
}

std::string fresh_dir(const std::string& name) {
  const std::string d = std::string(testing::TempDir()) + "/" + name;
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

std::vector<std::string> dir_listing(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    out.push_back(e.path().filename().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string l; std::getline(in, l);) out.push_back(l);
  return out;
}

std::vector<std::string> case_lines(const FuzzReport& r) {
  std::vector<std::string> out;
  for (const std::string& l : split_lines(r.to_text())) {
    if (l.rfind("case ", 0) == 0) out.push_back(l);
  }
  return out;
}

// --- stale-deletion-certificate race (found by the guided soak) ------------

// The edge-hygiene rule certified a junk-edge deletion (me, v) against a
// one-round-stale view claiming the path me-w-v. A concurrent churn edge
// removal (or an earlier deletion in the same apply batch) could sever a
// certificate edge after the decision was made; committing the delete
// anyway isolated a host — "I1: network disconnected". The fix records the
// witness w with the disconnect request and the engine re-validates the
// path against the live graph at apply time, dropping stale deletes
// (counted by RunMetrics::stale_cert_drops).
void replay_cert_race(const std::string& scn, bool expect_drops) {
  util::set_log_level(util::LogLevel::kError);
  std::string error;
  const auto sc = campaign::load_scenario(repo_path(scn), &error);
  ASSERT_TRUE(sc.has_value()) << error;
  const auto jobs = campaign::expand_jobs(*sc);
  ASSERT_EQ(jobs.size(), 1u);
  campaign::JobRunner jr(*sc, jobs[0], 1, verify::OracleConfig{});
  jr.run();
  const std::uint64_t drops = jr.engine().metrics().stale_cert_drops();
  const auto r = jr.result();
  EXPECT_EQ(r.oracle_violation, "") << "the certificate race is back";
  if (expect_drops) {
    // The repro still reaches the race window: commit-time validation must
    // actually fire (otherwise the scenario stopped exercising the bug and
    // the clean replay above proves nothing).
    EXPECT_GT(drops, 0u);
  }
}

TEST(CertRace, ChurnDisconnectReproStaysClean) {
  replay_cert_race("examples/scenarios/cert_race_disconnect.scn", true);
}

TEST(CertRace, RackOutageReproStaysClean) {
  replay_cert_race("examples/scenarios/cert_race_rack_outage.scn", false);
}

// --- grammar prefix stability ----------------------------------------------

// The D14 grammar axes (series/workload/flash-crowd/long-soak) must draw
// strictly after the pre-existing draws, so a (seed, case) pair generates a
// scenario whose old configuration and events are byte-identical to what
// the PR 4 grammar produced — old repro seeds keep reproducing. The golden
// file was captured against the pre-D14 generator.
TEST(FuzzGrammar, PrefixStability) {
  // Must match kFuzzStreamSalt in src/verify/fuzzer.cpp: changing it (or
  // the case-stream split) silently invalidates every published repro seed,
  // which is exactly what this golden pins.
  constexpr std::uint64_t kFuzzStreamSalt = 0xfa22'9b01'77c3'55e9ULL;
  const std::string golden = slurp(repo_path("tests/data/fuzz_prefix_golden.txt"));
  ASSERT_FALSE(golden.empty());
  std::uint64_t seed = 0, case_index = 0;
  std::string body;
  std::size_t checked = 0;
  const auto check_case = [&] {
    if (body.empty()) return;
    util::Rng root(seed ^ kFuzzStreamSalt);
    util::Rng rng = root.split(case_index);
    const Scenario sc = verify::generate_scenario(case_index, rng);
    const auto now = split_lines(sc.to_text());
    const std::set<std::string> now_set(now.begin(), now.end());
    for (const std::string& l : split_lines(body)) {
      EXPECT_TRUE(now_set.count(l))
          << "seed " << seed << " case " << case_index
          << ": golden line missing from regenerated scenario: " << l;
    }
    // New lines are D14-only: series/workload directives, or events landing
    // at round >= 245 (after the grammar's pre-D14 event span and stall
    // windows, which occupy rounds [0, 240)).
    const std::set<std::string> old_set = [&] {
      const auto v = split_lines(body);
      return std::set<std::string>(v.begin(), v.end());
    }();
    for (const std::string& l : now) {
      if (old_set.count(l)) continue;
      if (l.rfind("series ", 0) == 0 || l.rfind("workload ", 0) == 0) continue;
      std::uint64_t round = 0;
      ASSERT_EQ(std::sscanf(l.c_str(), "at %llu",
                            reinterpret_cast<unsigned long long*>(&round)),
                1)
          << "unexpected non-event line added by the new grammar: " << l;
      EXPECT_GE(round, 245u) << "new grammar event inside the old span: " << l;
    }
    ++checked;
    body.clear();
  };
  for (const std::string& l : split_lines(golden)) {
    unsigned long long s = 0, c = 0;
    if (std::sscanf(l.c_str(), "=== seed %llu case %llu ===", &s, &c) == 2) {
      check_case();
      seed = s;
      case_index = c;
    } else {
      body += l + "\n";
    }
  }
  check_case();
  EXPECT_GE(checked, 12u);
}

// --- guided vs blind at equal budget ---------------------------------------

TEST(FuzzGuided, StrictlyMoreCheckClassesAndOraclePathsThanBlind) {
  util::set_log_level(util::LogLevel::kError);
  FuzzOptions opt;
  opt.seed = 1;
  opt.budget = 10;
  opt.guided = true;
  const FuzzReport guided = verify::run_fuzz(opt);
  opt.guided = false;
  const FuzzReport blind = verify::run_fuzz(opt);
  // The guided loop's corpus + oracle-stride scheduling must exercise
  // strictly more invariant-check classes and oracle code paths than the
  // blind PR 4 loop at the same budget (acceptance criterion).
  EXPECT_GT(guided.invariant_classes, blind.invariant_classes);
  EXPECT_GT(std::popcount(guided.oracle_paths),
            std::popcount(blind.oracle_paths));
  EXPECT_FALSE(guided.corpus.empty());
  EXPECT_TRUE(blind.corpus.empty());
}

// --- mutation determinism --------------------------------------------------

TEST(FuzzGuided, CaseSequenceIdenticalAtAnyJobs) {
  util::set_log_level(util::LogLevel::kError);
  std::string first;
  for (std::size_t jobs : {1u, 2u, 4u}) {
    FuzzOptions opt;
    opt.seed = 5;
    opt.budget = 12;
    opt.jobs = jobs;
    opt.corpus_dir = fresh_dir("fuzz_jobs_" + std::to_string(jobs));
    const FuzzReport r = verify::run_fuzz(opt);
    if (first.empty()) {
      first = r.to_text();
    } else {
      EXPECT_EQ(r.to_text(), first) << "--jobs " << jobs
                                    << " changed the case sequence";
    }
  }
}

TEST(FuzzGuided, BudgetExtensionReplaysThePrefix) {
  util::set_log_level(util::LogLevel::kError);
  FuzzOptions opt;
  opt.seed = 5;
  opt.budget = 6;
  opt.corpus_dir = fresh_dir("fuzz_ext_a");
  const auto short_lines = case_lines(verify::run_fuzz(opt));
  opt.budget = 12;
  opt.corpus_dir = fresh_dir("fuzz_ext_b");
  const auto long_lines = case_lines(verify::run_fuzz(opt));
  ASSERT_EQ(short_lines.size(), 6u);
  ASSERT_EQ(long_lines.size(), 12u);
  for (std::size_t i = 0; i < short_lines.size(); ++i) {
    EXPECT_EQ(long_lines[i], short_lines[i]) << "case " << i;
  }
}

// --- checkpoint/resume with corpus state -----------------------------------

TEST(FuzzGuided, ResumeWithCorpusIsByteIdenticalToStraightRun) {
  util::set_log_level(util::LogLevel::kError);
  FuzzOptions opt;
  opt.seed = 5;
  opt.budget = 10;
  opt.corpus_dir = fresh_dir("fuzz_straight");
  opt.checkpoint_path = std::string(testing::TempDir()) + "/fuzz_straight.ck";
  const FuzzReport straight = verify::run_fuzz(opt);

  FuzzOptions part = opt;
  part.corpus_dir = fresh_dir("fuzz_resumed");
  part.checkpoint_path = std::string(testing::TempDir()) + "/fuzz_resumed.ck";
  part.budget = 4;  // interrupt after 4 cases...
  verify::run_fuzz(part);
  part.budget = 10;  // ...and resume to the full budget
  part.resume_path = part.checkpoint_path;
  const FuzzReport resumed = verify::run_fuzz(part);

  EXPECT_EQ(resumed.to_text(), straight.to_text());
  EXPECT_EQ(dir_listing(part.corpus_dir), dir_listing(opt.corpus_dir));
  for (const std::string& f : dir_listing(opt.corpus_dir)) {
    EXPECT_EQ(slurp(part.corpus_dir + "/" + f), slurp(opt.corpus_dir + "/" + f))
        << "corpus file " << f;
  }
}

TEST(FuzzGuided, BindingRejectsCorpusDrift) {
  util::set_log_level(util::LogLevel::kError);
  FuzzOptions opt;
  opt.seed = 5;
  opt.budget = 8;
  opt.corpus_dir = fresh_dir("fuzz_drift");
  opt.checkpoint_path = std::string(testing::TempDir()) + "/fuzz_drift.ck";
  const FuzzReport r = verify::run_fuzz(opt);
  ASSERT_FALSE(r.corpus.empty());

  verify::FuzzResume rs;
  ASSERT_TRUE(verify::read_fuzz_checkpoint(opt.checkpoint_path, opt.seed, rs).ok);
  // Pristine directory: binding holds.
  EXPECT_TRUE(verify::check_corpus_binding(rs, opt.corpus_dir).ok);

  // Resuming without the corpus directory the run was recorded with.
  const auto presence = verify::check_corpus_binding(rs, "");
  EXPECT_FALSE(presence.ok);
  EXPECT_NE(presence.error.find("CORP"), std::string::npos);

  // A corpus file edited since the checkpoint.
  const std::string victim = dir_listing(opt.corpus_dir).front();
  {
    std::ofstream out(opt.corpus_dir + "/" + victim, std::ios::app);
    out << "# drift\n";
  }
  const auto tampered = verify::check_corpus_binding(rs, opt.corpus_dir);
  EXPECT_FALSE(tampered.ok);
  EXPECT_NE(tampered.error.find("CORP"), std::string::npos);
  EXPECT_NE(tampered.error.find(victim), std::string::npos);

  // A corpus file deleted since the checkpoint.
  fs::remove(opt.corpus_dir + "/" + victim);
  const auto missing = verify::check_corpus_binding(rs, opt.corpus_dir);
  EXPECT_FALSE(missing.ok);
  EXPECT_NE(missing.error.find(victim), std::string::npos);
}

// --- minimizer knows the D14 axes ------------------------------------------

TEST(Minimize, DropsWorkloadAndSeriesWhenIrrelevant) {
  // A frozen-churn failure decorated with the guided grammar's D14 axes:
  // neither the telemetry series nor the serving workload is load-bearing,
  // so the minimizer's new drop passes must remove both.
  util::set_log_level(util::LogLevel::kError);
  Scenario sc;
  sc.name = "frozen-churn-d14";
  sc.n_guests = 64;
  sc.host_counts = {12};
  sc.families = {graph::Family::kRandomTree};
  sc.seed_lo = sc.seed_hi = 1;
  sc.max_rounds = 100000;
  sc.freeze_at(0).churn_at(1, 2);
  sc.series(4, 64);
  sc.serve(0, 40, 2);
  sc.workload.keys = 64;
  ASSERT_EQ(sc.validate(), "");
  const auto jobs = campaign::expand_jobs(sc);
  verify::FailureSignature sig{
      verify::FailureSignature::Kind::kOracleViolation, "I4"};
  const auto min = verify::minimize(sc, jobs[0], sig, {});
  EXPECT_EQ(min.replay.oracle_violation.substr(0, 2), "I4");
  EXPECT_FALSE(min.scenario.workload_armed());
  EXPECT_EQ(min.scenario.series_stride, 0u);
}

}  // namespace
}  // namespace chs
