// Campaign results: the per-job record, the aggregate report, and its two
// serializations (JSON for machines/golden diffs, core::Table CSV for the
// EXPERIMENTS.md workflow).
//
// Determinism contract (DESIGN.md D7): every field is computed from the
// job results alone, jobs are aggregated in job-index order, and all
// formatting uses fixed printf conversions — so the emitted bytes are
// identical for any `--jobs k` and any per-engine worker count. The CI
// campaign smoke job diffs the JSON against a committed golden to keep
// this property pinned.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "campaign/scenario.hpp"
#include "core/experiment.hpp"
#include "obs/series.hpp"
#include "sim/profile.hpp"

namespace chs::campaign {

/// One job of the expanded sweep: a fully-determined simulation.
struct JobSpec {
  std::size_t index = 0;
  graph::Family family = graph::Family::kRandomTree;
  std::size_t n_hosts = 0;
  std::uint64_t seed = 0;
};

/// What happened to one timeline event inside one job.
struct EventOutcome {
  EventKind kind = EventKind::kChurn;
  std::uint64_t round = 0;           // timeline round it was applied at
  std::uint64_t recovery_rounds = 0; // rounds until convergence next held
  bool recovered = false;
};

/// What happened inside one Byzantine window of one job (DESIGN.md D11):
/// which hosts misbehaved, and how many oracle violations the blame
/// attribution classified adversary-induced while it was open.
struct ByzWindowOutcome {
  std::uint64_t begin = 0;  // timeline rounds, [begin, end)
  std::uint64_t end = 0;
  adversary::BehaviorKind kind = adversary::BehaviorKind::kLiar;
  std::vector<std::uint64_t> hosts;  // ascending host ids
  std::uint64_t contained = 0;       // contained violations during the window
};

struct JobResult {
  JobSpec spec;
  /// Start phase (StartMode::kConverged): did the network stabilize before
  /// the timeline began, and in how many rounds? Cold starts report true/0.
  bool setup_converged = false;
  std::uint64_t setup_rounds = 0;
  /// Timeline phase.
  bool converged = false;        // final state when the job ended
  std::uint64_t rounds = 0;      // timeline rounds executed
  std::uint64_t messages = 0;    // sent during the timeline phase
  std::uint64_t messages_dropped = 0;
  std::uint64_t resets = 0;      // detector resets during the timeline
  std::uint64_t edge_adds = 0;
  std::uint64_t edge_dels = 0;
  std::size_t peak_degree = 0;   // over the whole run (setup + timeline)
  double degree_expansion = 0.0;
  std::vector<EventOutcome> events;
  /// Invariant-oracle outcome (RunOptions::oracle, DESIGN.md D8), written
  /// by the runner. Untouched when the job ran without the oracle;
  /// serialized into JSON only for armed jobs, so oracle-free reports (and
  /// the CI golden) keep their exact bytes.
  bool oracle_armed = false;
  std::string oracle_violation;       // first violated invariant, "" = clean
  std::uint64_t oracle_round = 0;     // engine round of the violation
  std::uint64_t oracle_rounds_checked = 0;
  /// InvariantOracle::Path bits the job exercised (DESIGN.md D14): the
  /// fuzzer's coverage signal. Checkpointed, never written to JSON or CSV.
  std::uint32_t oracle_paths = 0;
  /// Adversary outcome (DESIGN.md D11). Armed iff the scenario declares
  /// Byzantine windows; like the oracle block, serialized into JSON only
  /// when armed so bestiary-free reports keep their pre-D11 bytes.
  bool adversary_armed = false;
  /// Every host that is neither Byzantine in some window nor a graph
  /// neighbor of one ended the job converged (phase DONE) — the per-job
  /// form of the paper-adjacent claim "the correct subset still stabilizes".
  bool correct_converged = false;
  /// Oracle violations attributed to the adversary (expected, not a bug).
  std::uint64_t contained_violations = 0;
  std::vector<ByzWindowOutcome> byz_windows;
  /// Per-round max-degree trace of the whole run — the engine's bit-for-bit
  /// determinism witness (tests compare it across worker counts). Held in
  /// memory only; never serialized into JSON/CSV.
  std::vector<std::size_t> degree_trace;
  /// Telemetry time series (DESIGN.md D12). Armed iff the scenario declares
  /// `series`; like the oracle/adversary blocks, serialized into JSON/CSV
  /// only when armed so series-free reports keep their exact prior bytes.
  /// Samples are deterministic counter deltas over timeline rounds —
  /// identical at any worker/job count and across checkpoint/resume.
  bool series_armed = false;
  std::uint64_t series_stride = 0;  // effective stride after downsampling
  std::vector<obs::SeriesSample> series;
  /// Serving-workload outcome (DESIGN.md D13). Armed iff the scenario
  /// declares `workload`; serialized into JSON/CSV only when armed so
  /// workload-free reports keep their exact prior bytes. Latency quantiles
  /// are log2-bucket upper edges in rounds, computed over the whole run —
  /// the per-window view lives in the series samples.
  bool workload_armed = false;
  std::uint64_t wl_issued = 0;
  std::uint64_t wl_completed = 0;
  std::uint64_t wl_timeouts = 0;
  std::uint64_t wl_retries = 0;
  std::uint64_t wl_hits = 0;          // get completions that found a value
  std::uint64_t wl_drops = 0;         // data-plane losses at down hosts
  std::uint64_t wl_peak_inflight = 0;
  std::uint64_t wl_p50 = 0;
  std::uint64_t wl_p99 = 0;
};

struct CampaignReport {
  std::string scenario;
  /// Set when RunOptions::halt_after_checkpoints abandoned the run mid-way
  /// (results are partial; resume from the checkpoint file). Never
  /// serialized — JSON/CSV bytes are untouched by the checkpoint layer.
  bool halted = false;
  std::size_t jobs = 0;
  std::size_t converged_jobs = 0;
  std::size_t events_total = 0;
  std::size_t events_recovered = 0;
  std::vector<JobResult> results;  // job-index order

  /// Aggregates across jobs (mean/min/max/p50/p90/p99 each), keyed and in
  /// report order: rounds (timeline), messages, messages_dropped, resets,
  /// peak_degree, degree_expansion, and recovery_rounds (per-event
  /// recovery latency over all jobs).
  std::vector<std::pair<std::string, core::Stats>> aggregate;

  /// Wall-clock phase profile summed over every job's rounds (DESIGN.md
  /// D12), populated only under RunOptions::profile. Non-deterministic by
  /// nature: to_json emits a `perf` block only when rounds > 0, no CI
  /// golden arms it, and it is never checkpointed.
  sim::RoundProfile perf;

  /// Deterministic JSON document (trailing newline included).
  std::string to_json() const;

  /// Per-job table (one row per job).
  core::Table to_table() const;

  /// Aggregate table (one row per metric).
  core::Table aggregate_table() const;

  /// Per-sample series table across armed jobs (one row per sample), for
  /// the CSV workflow. Empty when no job armed the recorder.
  core::Table series_table() const;
};

/// Aggregate job results (already in job-index order) into a report.
CampaignReport make_report(const Scenario& sc, std::vector<JobResult> results);

}  // namespace chs::campaign
