// chordsim — command-line driver for the library.
//
//   chordsim run    [--n 64] [--N 256] [--family random_tree] [--seed 1]
//                   [--target chord|bichord|hypercube|skiplist|smallworld]
//                   [--delay 1] [--max-rounds 400000] [--trace]
//                   [--workers 1] [--fast-forward]
//   chordsim route  [--n 64] [--N 256] [--lookups 500] [--seed 1]
//                   (KV gets; hops reported are round-trip)
//   chordsim churn  [--n 64] [--N 256] [--episodes 3] [--burst 1] [--seed 1]
//   chordsim dot    [--n 24] [--N 64] [--family line] [--seed 1]
//                   [--rounds R] [--svg]  (0 = run to convergence)
//   chordsim campaign <scenario-file> [--jobs 1] [--workers 1]
//                   [--json PATH] [--csv] [--quiet] [--oracle]
//                   [--checkpoint FILE] [--checkpoint-every R]
//                   [--resume FILE] [--halt-after-checkpoints N]
//                   [--flight DIR] [--profile]
//   chordsim trace  <scenario-file> [--job 0] [--workers 1] [--oracle]
//                   [--out PATH]
//   chordsim fuzz   [--budget 16] [--seed 1] [--stride 1] [--minimize]
//                   [--jobs 1] [--workers 1] [--repro-dir DIR] [--quiet]
//                   [--checkpoint FILE] [--resume FILE]
//                   [--corpus DIR] [--blind]
//   chordsim describe <checkpoint-file>
//
// Checkpoint/resume (DESIGN.md D9): `campaign --checkpoint FILE` maintains
// an atomically rewritten checkpoint (add `--checkpoint-every R` for
// mid-job engine snapshots every R rounds); `--resume FILE` continues an
// interrupted run — completed jobs keep their recorded results, in-progress
// jobs resume mid-simulation — and the final report bytes are identical to
// an uninterrupted run. `fuzz --checkpoint/--resume` does the same at case
// granularity. `describe` dumps a checkpoint's header and section framing
// (sizes, CRC verdicts) for debugging. `--halt-after-checkpoints N` is the
// CI equivalence hook: abandon the campaign (exit 3) after N checkpoint
// writes, leaving a genuinely mid-run file for a --resume diff.
//
// `fuzz` generates `--budget` random-but-valid adversarial scenarios from a
// seeded grammar, runs each through the campaign runner with the online
// invariant oracle armed (checking I1-I5 every `--stride` rounds), and, with
// `--minimize`, shrinks any failure to a minimal .scn repro (written into
// `--repro-dir` when given). The report is byte-identical for any
// `--jobs`/`--workers` values, like campaign reports. Guided mode is the
// default (DESIGN.md D14): scenarios that exercise new coverage features
// join a corpus and later cases mutate the best-scoring entry; `--corpus
// DIR` persists the corpus (existing .scn files seed the run, interesting
// scenarios are saved back, and a `--resume` verifies the directory against
// the checkpoint's recorded state); `--blind` restores the regenerate-
// from-scratch loop.
//
// Telemetry (DESIGN.md D12): `campaign --flight DIR` arms a per-job flight
// recorder and dumps `<scenario>_job<N>.trace.json` + a `.scn` repro for
// every failed job; `--profile` appends a wall-clock phase-timing summary
// (never part of golden-diffed output). `trace` runs ONE job of a scenario
// with the flight recorder armed unconditionally and writes the Chrome
// trace-event JSON (chrome://tracing, Perfetto) to --out or stdout.
// `--oracle` (campaign, trace) arms the invariant oracle on every job in
// soft mode: violations are recorded in the report, and narrated into the
// flight recorder when one is armed, but never abort the job.
//
// `run` stabilizes an Avatar(target) network from the chosen initial topology
// and prints the convergence metrics (optionally a per-round phase trace).
// `route` additionally snapshots the converged overlay into the KV data plane
// (dht::make_kv_engine), issues `--lookups` gets from random hosts to random
// guests, and reports their round-trip hops (request plus reply); it exits 1
// unless every get is answered. `churn` repeatedly tears a host out and lets
// the network re-stabilize. `dot` prints a Graphviz snapshot (nodes colored by
// phase, edges by ring/tree/finger/transient classification) after R rounds —
// render with `neato -n2 -Tsvg`. `campaign` loads a declarative scenario
// (src/campaign/scenario.hpp documents the format, examples/scenarios/ has
// ready-made ones), fans the expanded job list out over `--jobs` threads, and
// prints per-job and aggregate reports — byte-identical for any
// `--jobs`/`--workers` values (DESIGN.md D7). Replicated-KV reads after host
// failures are one such scenario: examples/scenarios/kv_failover.scn.
//
// Unknown --flags are a usage error: a typo like `--worker 8` must fail
// loudly, not silently run single-threaded.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "core/churn.hpp"
#include "core/invariants.hpp"
#include "core/svg.hpp"
#include "core/trace.hpp"
#include "dht/kvstore.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "obs/flight.hpp"
#include "obs/profiler.hpp"
#include "persist/io.hpp"
#include "util/bitops.hpp"
#include "util/log.hpp"
#include "verify/fuzzer.hpp"
#include "verify/oracle.hpp"

using namespace chs;

namespace {

struct Args {
  std::map<std::string, std::string> kv;
  std::vector<std::string> positional;
  const char* get(const char* key, const char* def) const {
    auto it = kv.find(key);
    return it == kv.end() ? def : it->second.c_str();
  }
  std::uint64_t get_u64(const char* key, std::uint64_t def) const {
    auto it = kv.find(key);
    return it == kv.end() ? def : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  bool has(const char* key) const { return kv.count(key) > 0; }
};

/// Strict parser: every --flag must appear in `allowed` (nullptr-terminated)
/// and at most `max_positional` bare arguments are accepted. Anything else
/// exits with a usage error naming the offender — silently ignoring a typo
/// like `--worker 8` would run a different experiment than the one asked for.
Args parse(int argc, char** argv, int first, const char* const* allowed,
           std::size_t max_positional = 0) {
  Args a;
  for (int i = first; i < argc; ++i) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0) {
      if (a.positional.size() >= max_positional) {
        std::fprintf(stderr, "unexpected argument '%s'\n", k.c_str());
        std::exit(2);
      }
      a.positional.push_back(k);
      continue;
    }
    k = k.substr(2);
    bool known = false;
    for (const char* const* f = allowed; *f; ++f) {
      if (k == *f) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::fprintf(stderr, "unknown flag '--%s'; valid flags:", k.c_str());
      for (const char* const* f = allowed; *f; ++f) {
        std::fprintf(stderr, " --%s", *f);
      }
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
    if (i + 1 < argc && argv[i + 1][0] != '-') {
      a.kv[k] = argv[++i];
    } else {
      a.kv[k] = "1";
    }
  }
  return a;
}

// An unknown --family/--target name exits 2 and lists the valid ones.
[[noreturn]] void unknown_name(const char* what, const std::string& name,
                               const std::vector<std::string>& options) {
  std::fprintf(stderr, "unknown %s '%s'; options:", what, name.c_str());
  for (const auto& o : options) std::fprintf(stderr, " %s", o.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::unique_ptr<core::StabEngine> build_engine(const Args& a) {
  const std::uint64_t n_guests = a.get_u64("N", 256);
  const std::size_t n_hosts =
      static_cast<std::size_t>(a.get_u64("n", n_guests / 4));
  const std::uint64_t seed = a.get_u64("seed", 1);
  const std::uint32_t delay =
      static_cast<std::uint32_t>(a.get_u64("delay", 1));

  util::Rng rng(seed);
  auto ids = graph::sample_ids(n_hosts, n_guests, rng);
  const std::string family = a.get("family", "random_tree");
  const auto fam = campaign::family_by_name(family);
  if (!fam) {
    std::vector<std::string> names;
    for (graph::Family f : graph::all_families()) {
      names.emplace_back(graph::family_name(f));
    }
    unknown_name("family", family, names);
  }
  const std::string target_name = a.get("target", "chord");
  const auto target = campaign::target_by_name(target_name);
  if (!target) {
    unknown_name("target", target_name, campaign::all_target_names());
  }
  auto g = graph::make_family(*fam, ids, rng);
  core::Params p;
  p.n_guests = n_guests;
  p.target = *target;
  p.delay_slack = delay;
  auto eng = core::make_engine(std::move(g), p, seed);
  eng->set_max_message_delay(delay);
  // Wall-clock knobs only — traces are identical at any value (DESIGN.md D6).
  const std::size_t workers = std::max<std::size_t>(1, a.get_u64("workers", 1));
  if (workers > 1) eng->set_worker_threads(workers);
  if (a.has("fast-forward")) eng->set_idle_fast_forward(true);
  std::printf("hosts=%zu guests=%llu family=%s target=%s seed=%llu delay=%u"
              " workers=%zu\n",
              n_hosts, static_cast<unsigned long long>(n_guests),
              family.c_str(), p.target.name.c_str(),
              static_cast<unsigned long long>(seed), delay, workers);
  return eng;
}

int phase_counts(core::StabEngine& eng, int which) {
  int c = 0;
  for (auto id : eng.graph().ids()) {
    c += static_cast<int>(eng.state(id).phase) == which;
  }
  return c;
}

int cmd_run(const Args& a) {
  auto eng = build_engine(a);
  const std::uint64_t max_rounds = a.get_u64("max-rounds", 400000);
  const bool trace = a.has("trace");
  std::uint64_t r = 0;
  for (; r < max_rounds && !core::is_converged(*eng); ++r) {
    eng->step_round();
    if (trace && r % 50 == 0) {
      std::printf("round %6llu: cbt=%d chord=%d done=%d edges=%zu "
                  "maxdeg=%zu resets=%llu\n",
                  static_cast<unsigned long long>(r), phase_counts(*eng, 0),
                  phase_counts(*eng, 1), phase_counts(*eng, 2),
                  eng->graph().num_edges(), eng->graph().max_degree(),
                  static_cast<unsigned long long>(core::total_resets(*eng)));
    }
  }
  if (!core::is_converged(*eng)) {
    std::printf("NOT converged after %llu rounds\n",
                static_cast<unsigned long long>(r));
    return 1;
  }
  std::printf("converged in %llu rounds (log^2 N = %u)\n",
              static_cast<unsigned long long>(r),
              util::ceil_log2(eng->protocol().params().n_guests) *
                  util::ceil_log2(eng->protocol().params().n_guests));
  std::printf("degree expansion %.2f, peak degree %zu, messages %llu\n",
              eng->metrics().degree_expansion(eng->graph()),
              eng->metrics().peak_max_degree(),
              static_cast<unsigned long long>(eng->metrics().messages()));
  const std::string inv = core::check_invariants(*eng);
  std::printf("invariants: %s\n", inv.empty() ? "ok" : inv.c_str());
  return 0;
}

int cmd_route(const Args& a) {
  auto eng = build_engine(a);
  if (!core::run_to_convergence(*eng, a.get_u64("max-rounds", 400000)).converged) {
    std::printf("did not converge\n");
    return 1;
  }
  const std::uint64_t seed = a.get_u64("seed", 1);
  auto kv = dht::make_kv_engine(*eng, seed);
  // Each get goes from a random origin to a random guest; its reply comes
  // home to a guest in the origin's range.
  const auto& ids = kv->graph().ids();
  const std::uint64_t n = kv->protocol().n_guests();
  const std::size_t issued = a.get_u64("lookups", 500);
  util::Rng rng(seed + 7);
  for (std::size_t i = 0; i < issued; ++i) {
    const graph::NodeId origin = ids[rng.next_below(ids.size())];
    dht::KvProtocol::Message m;
    m.kind = dht::KvProtocol::Message::Kind::kGet;
    m.op_id = i;
    m.target = rng.next_below(n);
    m.origin = origin;
    m.reply_home = kv->state(origin).lo;
    kv->state_mut(origin).to_send.push_back(std::move(m));
  }
  std::uint64_t rounds = 0;
  for (; rounds < 5000 && kv->quiescent_streak() < 3; ++rounds) {
    kv->step_round();
  }
  std::size_t answered = 0;
  std::uint64_t total_hops = 0;
  std::uint32_t max_hops = 0;
  for (graph::NodeId id : ids) {
    for (const auto& reply : kv->state(id).completed) {
      ++answered;
      total_hops += reply.hops;
      max_hops = std::max(max_hops, reply.hops);
    }
  }
  std::printf("gets: %zu issued, %zu answered, round-trip hops mean %.2f, "
              "max %u (log N = %u), drained in %llu rounds\n",
              issued, answered,
              answered > 0 ? static_cast<double>(total_hops) /
                                 static_cast<double>(answered)
                           : 0.0,
              max_hops, util::ceil_log2(n),
              static_cast<unsigned long long>(rounds));
  return answered == issued ? 0 : 1;
}

int cmd_churn(const Args& a) {
  auto eng = build_engine(a);
  if (!core::run_to_convergence(*eng, a.get_u64("max-rounds", 400000)).converged) {
    std::printf("did not converge\n");
    return 1;
  }
  core::ChurnSchedule sched;
  sched.episodes = a.get_u64("episodes", 3);
  sched.burst = a.get_u64("burst", 1);
  sched.seed = a.get_u64("seed", 1);
  const auto report = core::run_churn_schedule(*eng, sched);
  for (std::size_t i = 0; i < report.episodes.size(); ++i) {
    const auto& ep = report.episodes[i];
    std::printf("event %zu: host %llu churned (anchor %llu) — %s after %llu "
                "rounds\n",
                i + 1, static_cast<unsigned long long>(ep.victim),
                static_cast<unsigned long long>(ep.anchor),
                ep.recovered ? "recovered" : "FAILED",
                static_cast<unsigned long long>(ep.recovery_rounds));
  }
  std::printf("churn: %zu events, max recovery %llu rounds, total %llu\n",
              report.episodes.size(),
              static_cast<unsigned long long>(report.max_recovery_rounds),
              static_cast<unsigned long long>(report.total_rounds));
  return report.all_recovered ? 0 : 1;
}

int cmd_dot(const Args& a) {
  auto eng = build_engine(a);
  const std::uint64_t rounds = a.get_u64("rounds", 0);
  if (rounds == 0) {
    if (!core::run_to_convergence(*eng, a.get_u64("max-rounds", 400000))
             .converged) {
      std::fprintf(stderr, "did not converge\n");
      return 1;
    }
  } else {
    for (std::uint64_t r = 0; r < rounds; ++r) eng->step_round();
  }
  if (a.has("svg")) {
    std::fputs(core::to_svg(*eng).c_str(), stdout);
  } else {
    std::fputs(core::to_dot(*eng).c_str(), stdout);
  }
  return 0;
}

int cmd_campaign(const Args& a) {
  if (a.positional.empty()) {
    std::fprintf(stderr, "usage: chordsim campaign <scenario-file> "
                 "[--jobs k] [--workers k] [--json PATH] [--csv] [--quiet] "
                 "[--oracle] [--checkpoint FILE] [--checkpoint-every R] "
                 "[--resume FILE] [--halt-after-checkpoints N] "
                 "[--flight DIR] [--profile]\n");
    return 2;
  }
  std::string error;
  const auto sc = campaign::load_scenario(a.positional[0], &error);
  if (!sc) {
    std::fprintf(stderr, "%s: %s\n", a.positional[0].c_str(), error.c_str());
    return 2;
  }
  // Protocol warnings from inside jobs would interleave across threads;
  // campaigns report through the tables, not the log.
  util::set_log_level(util::LogLevel::kError);
  campaign::RunOptions opts;
  opts.jobs = std::max<std::size_t>(1, a.get_u64("jobs", 1));
  opts.engine_workers = std::max<std::size_t>(1, a.get_u64("workers", 1));
  opts.checkpoint_path = a.get("checkpoint", "");
  opts.checkpoint_every = a.get_u64("checkpoint-every", 0);
  opts.resume_path = a.get("resume", "");
  opts.halt_after_checkpoints = a.get_u64("halt-after-checkpoints", 0);
  // Telemetry (DESIGN.md D12): both knobs are diagnostic only — report
  // bytes are identical with or without them.
  opts.flight_dir = a.get("flight", "");
  opts.profile = a.has("profile");
  if (a.has("flight") && opts.flight_dir == "1") {
    std::fprintf(stderr, "--flight needs a directory argument\n");
    return 2;
  }
  if (a.has("oracle")) {
    // Arm the invariant oracle on every job in soft mode: violations are
    // recorded (and attributed, for Byzantine scenarios — DESIGN.md D11)
    // without aborting the campaign, so the report still aggregates.
    opts.oracle = verify::OracleConfig{.stride = 1, .hard_fail = false};
  }
  if (opts.checkpoint_every != 0 && opts.checkpoint_path.empty()) {
    std::fprintf(stderr, "--checkpoint-every needs --checkpoint FILE\n");
    return 2;
  }
  if (!a.has("quiet")) {
    std::printf("campaign %s: %zu jobs (%zu families x %zu host counts x "
                "%llu seeds), jobs=%zu workers=%zu\n",
                sc->name.c_str(), sc->num_jobs(), sc->families.size(),
                sc->host_counts.size(),
                static_cast<unsigned long long>(sc->seed_hi - sc->seed_lo + 1),
                opts.jobs, opts.engine_workers);
  }
  const auto report = campaign::run_campaign(*sc, opts);
  if (report.halted) {
    // Deliberately abandoned mid-run (--halt-after-checkpoints): the
    // partial report is meaningless, the checkpoint file is the product.
    std::fprintf(stderr,
                 "halted after checkpoint; resume with --resume %s\n",
                 opts.checkpoint_path.c_str());
    return 3;
  }
  if (!a.has("quiet")) {
    report.to_table().print();
    std::printf("\n");
    report.aggregate_table().print();
    // Serving summary (DESIGN.md D13), only when the scenario declared a
    // `workload` directive — one line per job so the churn-burst SLO story
    // is visible without opening the JSON.
    for (const campaign::JobResult& r : report.results) {
      if (!r.workload_armed) continue;
      const std::uint64_t settled = r.wl_completed + r.wl_timeouts;
      std::printf(
          "job %zu workload: issued=%llu completed=%llu timeouts=%llu "
          "retried=%llu drops=%llu peak_inflight=%llu p50<=%llu p99<=%llu "
          "availability=%.4f\n",
          r.spec.index, (unsigned long long)r.wl_issued,
          (unsigned long long)r.wl_completed,
          (unsigned long long)r.wl_timeouts, (unsigned long long)r.wl_retries,
          (unsigned long long)r.wl_drops,
          (unsigned long long)r.wl_peak_inflight,
          (unsigned long long)r.wl_p50, (unsigned long long)r.wl_p99,
          settled == 0 ? 1.0
                       : static_cast<double>(r.wl_completed) /
                             static_cast<double>(settled));
    }
  }
  // Explicitly armed, so it prints under --quiet too — but to stderr, so a
  // --json/--csv pipeline on stdout stays machine-clean.
  if (opts.profile) {
    std::fputs(obs::perf_text(report.perf).c_str(), stderr);
  }
  // CSV is an output format, not chatter: it prints under --quiet too.
  if (a.has("csv")) {
    report.to_table().print_csv("campaign_" + sc->name);
    report.aggregate_table().print_csv("campaign_" + sc->name + "_aggregate");
    // Only scenarios that armed the series recorder get the extra block, so
    // pre-D12 scenarios keep their exact CSV bytes.
    const bool any_series = std::any_of(
        report.results.begin(), report.results.end(),
        [](const campaign::JobResult& r) { return r.series_armed; });
    if (any_series) {
      report.series_table().print_csv("campaign_" + sc->name + "_series");
    }
  }
  if (a.has("json")) {
    const std::string json = report.to_json();
    // Bare `--json` (no PATH) writes to stdout; pair with --quiet for a
    // pipeline-clean document.
    const char* path = a.get("json", "");
    if (path[0] == '\0' || !std::strcmp(path, "1")) {
      std::fputs(json.c_str(), stdout);
    } else {
      std::FILE* f = std::fopen(path, "wb");
      if (!f) {
        std::fprintf(stderr, "cannot write '%s'\n", path);
        return 2;
      }
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  }
  return report.converged_jobs == report.jobs ? 0 : 1;
}

int cmd_fuzz(const Args& a) {
  util::set_log_level(util::LogLevel::kError);
  verify::FuzzOptions opt;
  opt.seed = a.get_u64("seed", 1);
  opt.budget = a.get_u64("budget", 16);
  opt.jobs = std::max<std::size_t>(1, a.get_u64("jobs", 1));
  opt.engine_workers = std::max<std::size_t>(1, a.get_u64("workers", 1));
  opt.oracle.stride = std::max<std::uint64_t>(1, a.get_u64("stride", 1));
  opt.checkpoint_path = a.get("checkpoint", "");
  opt.resume_path = a.get("resume", "");
  // --repro-dir exists to collect minimized .scn files; without
  // minimization there would be nothing to write, so it implies --minimize.
  opt.minimize = a.has("minimize") || a.has("repro-dir");
  opt.guided = !a.has("blind");
  opt.corpus_dir = a.get("corpus", "");
  if (a.has("blind") && a.has("corpus")) {
    std::fprintf(stderr,
                 "--blind regenerates every case from scratch; it cannot "
                 "combine with --corpus\n");
    return 2;
  }
  const auto report = verify::run_fuzz(opt);
  if (!a.has("quiet")) {
    std::fputs(report.to_text().c_str(), stdout);
  } else {
    // Even --quiet reports failures; silence is reserved for clean runs.
    for (std::size_t i = 0; i < report.failures.size(); ++i) {
      std::printf("failure %zu: case %llu: %s\n", i,
                  static_cast<unsigned long long>(
                      report.failures[i].case_index),
                  report.failures[i].detail.c_str());
    }
  }
  if (a.has("repro-dir")) {
    for (const auto& f : report.failures) {
      if (!f.minimized) continue;
      const std::string path = std::string(a.get("repro-dir", ".")) + "/" +
                               f.minimized->scenario.name + ".scn";
      std::FILE* out = std::fopen(path.c_str(), "wb");
      if (!out) {
        std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
        return 2;
      }
      const std::string text = f.minimized->scenario.to_text();
      std::fwrite(text.data(), 1, text.size(), out);
      std::fclose(out);
      if (!a.has("quiet")) {
        std::printf("wrote %s\n", path.c_str());
      }
    }
  }
  return report.failures.empty() ? 0 : 1;
}

int cmd_trace(const Args& a) {
  if (a.positional.empty()) {
    std::fprintf(stderr, "usage: chordsim trace <scenario-file> "
                 "[--job N] [--workers K] [--oracle] [--out PATH]\n");
    return 2;
  }
  std::string error;
  const auto sc = campaign::load_scenario(a.positional[0], &error);
  if (!sc) {
    std::fprintf(stderr, "%s: %s\n", a.positional[0].c_str(), error.c_str());
    return 2;
  }
  util::set_log_level(util::LogLevel::kError);
  const auto jobs = campaign::expand_jobs(*sc);
  const std::uint64_t job = a.get_u64("job", 0);
  if (job >= jobs.size()) {
    std::fprintf(stderr, "--job %llu out of range: scenario expands to %zu "
                 "jobs\n",
                 static_cast<unsigned long long>(job), jobs.size());
    return 2;
  }
  // Unlike `campaign --flight DIR` (failed jobs only), `trace` always dumps:
  // it exists to look at one job in detail, healthy or not.
  obs::FlightRecorder flight;
  std::optional<verify::OracleConfig> oracle;
  if (a.has("oracle")) {
    oracle = verify::OracleConfig{.stride = 1, .hard_fail = false};
  }
  campaign::JobRunner runner(
      *sc, jobs[job], std::max<std::size_t>(1, a.get_u64("workers", 1)),
      oracle);
  runner.set_flight(&flight);
  runner.run();
  const campaign::JobResult jr = runner.result();
  const std::string json = flight.to_chrome_trace();
  const char* out = a.get("out", "");
  if (out[0] == '\0' || !std::strcmp(out, "1")) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out, "wb");
    if (!f) {
      std::fprintf(stderr, "cannot write '%s'\n", out);
      return 2;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
  // Status goes to stderr so a bare `trace foo.scn > trace.json` pipeline
  // keeps stdout machine-clean.
  std::fprintf(stderr,
               "job %llu/%zu: %s after %llu timeline rounds; "
               "%llu events recorded, %zu retained, %llu dropped%s%s\n",
               static_cast<unsigned long long>(job), jobs.size(),
               jr.converged ? "converged" : "NOT converged",
               static_cast<unsigned long long>(jr.rounds),
               static_cast<unsigned long long>(flight.total()),
               flight.events().size(),
               static_cast<unsigned long long>(flight.dropped()),
               jr.oracle_violation.empty() ? "" : "; oracle: ",
               jr.oracle_violation.c_str());
  return jr.converged && jr.oracle_violation.empty() ? 0 : 1;
}

int cmd_describe(const Args& a) {
  if (a.positional.empty()) {
    std::fprintf(stderr, "usage: chordsim describe <checkpoint-file>\n");
    return 2;
  }
  std::vector<std::uint8_t> bytes;
  const auto s = persist::read_file(a.positional[0], bytes);
  if (!s.ok) {
    std::fprintf(stderr, "%s\n", s.error.c_str());
    return 2;
  }
  std::fputs(persist::describe(bytes).c_str(), stdout);
  return 0;
}

// Flags shared by every engine-building subcommand.
#define CHS_ENGINE_FLAGS "n", "N", "family", "seed", "target", "delay", \
                         "max-rounds", "workers", "fast-forward"

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: chordsim run|route|churn|dot|campaign|trace|fuzz|"
                 "describe [--key value ...]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "run") {
    static const char* const kFlags[] = {CHS_ENGINE_FLAGS, "trace", nullptr};
    return cmd_run(parse(argc, argv, 2, kFlags));
  }
  if (cmd == "route") {
    static const char* const kFlags[] = {CHS_ENGINE_FLAGS, "lookups", nullptr};
    return cmd_route(parse(argc, argv, 2, kFlags));
  }
  if (cmd == "churn") {
    static const char* const kFlags[] = {CHS_ENGINE_FLAGS, "episodes", "burst",
                                         nullptr};
    return cmd_churn(parse(argc, argv, 2, kFlags));
  }
  if (cmd == "dot") {
    static const char* const kFlags[] = {CHS_ENGINE_FLAGS, "rounds", "svg",
                                         nullptr};
    return cmd_dot(parse(argc, argv, 2, kFlags));
  }
  if (cmd == "campaign") {
    static const char* const kFlags[] = {
        "jobs", "workers", "json", "csv", "quiet", "oracle", "checkpoint",
        "checkpoint-every", "resume", "halt-after-checkpoints", "flight",
        "profile", nullptr};
    return cmd_campaign(parse(argc, argv, 2, kFlags, 1));
  }
  if (cmd == "trace") {
    static const char* const kFlags[] = {"job", "workers", "oracle", "out",
                                         nullptr};
    return cmd_trace(parse(argc, argv, 2, kFlags, 1));
  }
  if (cmd == "fuzz") {
    static const char* const kFlags[] = {
        "budget",    "seed",  "stride",     "minimize",   "jobs",
        "workers",   "quiet", "repro-dir",  "checkpoint", "resume",
        "corpus",    "blind", nullptr};
    return cmd_fuzz(parse(argc, argv, 2, kFlags));
  }
  if (cmd == "describe") {
    static const char* const kFlags[] = {nullptr};
    return cmd_describe(parse(argc, argv, 2, kFlags, 1));
  }
  std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
  return 2;
}
