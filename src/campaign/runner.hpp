// Campaign runner (DESIGN.md D7): expand a Scenario's sweep axes into a job
// list, execute every job — an independent simulation with the scenario's
// adversarial timeline applied round by round — and aggregate the results.
//
// Parallelism happens at two independent levels:
//   * across jobs — `RunOptions::jobs` worker threads claim job indices
//     from a shared counter; each job owns its engine, RNG streams, and
//     result slot, so threads share nothing but the counter and results
//     are written by job index. The aggregate report is assembled from the
//     results array in index order after all jobs finish, which makes the
//     emitted bytes identical for any thread count;
//   * inside a job — `RunOptions::engine_workers` forwards to
//     Engine::set_worker_threads, whose PR 2 merge rule keeps per-job
//     traces bit-for-bit identical at any k, including while this module's
//     loss/partition delivery filter is active (the filter runs in the
//     engine's serial release phase — see sim/engine.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/report.hpp"
#include "campaign/scenario.hpp"
#include "core/network.hpp"
#include "persist/io.hpp"
#include "verify/oracle.hpp"

namespace chs::obs {
class FlightRecorder;
}
namespace chs::sim {
struct RoundProfile;
}

namespace chs::campaign {

/// The scenario's cartesian sweep (families x host counts x seeds), in
/// deterministic job-index order: family-major, then host count, then seed.
std::vector<JobSpec> expand_jobs(const Scenario& sc);

/// One job as a resumable state machine (DESIGN.md D9): build the initial
/// configuration, optionally stabilize (StartMode::kConverged), then drive
/// the timeline — applying round-indexed events and maintaining the
/// loss/partition delivery filter — until every event and window has passed
/// and the network has reconverged, or the round budget runs out. run_job
/// is the one-shot wrapper; this class exists so the campaign runner can
/// snapshot a job mid-flight and the minimizer can time-travel into one.
///
/// With `oracle` set, the runner arms a verify::InvariantOracle (DESIGN.md
/// D8) on the job's engine right after construction — before the setup
/// phase, so stabilization itself is checked — tells it the Byzantine host
/// set (D11), and writes its verdict and counters into the JobResult's
/// oracle_* fields. A hard-failing oracle ends the job at its next round
/// boundary. The oracle only observes: the D7 determinism rule holds.
///
/// checkpoint() serializes the engine blob plus the loop state (stage,
/// timeline cursor, adversary RNG streams, partial JobResult, oracle state);
/// restore() expects a freshly constructed runner with the same scenario,
/// spec, and oracle configuration, and resumes bit-for-bit: the finished
/// job's result is byte-identical to the uninterrupted run's.
class JobRunner {
 public:
  JobRunner(const Scenario& sc, const JobSpec& spec,
            std::size_t engine_workers = 1,
            std::optional<verify::OracleConfig> oracle = std::nullopt);
  ~JobRunner();
  JobRunner(const JobRunner&) = delete;
  JobRunner& operator=(const JobRunner&) = delete;

  /// Advance one engine round (or one phase transition). False once done.
  bool step();
  bool finished() const;

  /// Invoked between rounds while run() drives the job; return false to
  /// pause (the runner stays resumable in-process or via checkpoint()).
  using RoundHook = std::function<bool(JobRunner&)>;
  void run(const RoundHook& hook = {});

  core::StabEngine& engine();
  std::uint64_t engine_round() const;
  /// True once the setup phase is over and the adversarial timeline drives.
  bool in_timeline() const;
  /// Timeline rounds begun (0 during setup).
  std::uint64_t timeline_round() const;

  /// Final result; valid once finished() (detaches the oracle and writes
  /// its verdict).
  JobResult result();

  /// Arm the flight recorder (DESIGN.md D12): the runner narrates timeline
  /// events, wipes, Byzantine-window boundaries, and job stage changes into
  /// `flight`, and chains a round observer that records per-host protocol
  /// phase / merge-stage transitions; the oracle narrates its violations
  /// there too. Call after restore() (the transition cache syncs from
  /// current engine state); pass nullptr to leave the job silent.
  /// Diagnostic only — arming never changes simulation or report bytes,
  /// and the ring is not checkpointed.
  void set_flight(obs::FlightRecorder* flight);

  /// Arm wall-clock phase profiling: forwards to Engine::set_profiler.
  /// Non-deterministic by nature; `p` never reaches golden-diffed output.
  void set_profiler(sim::RoundProfile* p);

  void checkpoint(persist::Writer& w);
  persist::Status restore(persist::Reader& r);

  /// Incremental snapshot (DESIGN.md D10): the same layout and loop state
  /// as checkpoint(), but the engine payload is a kEngineDelta blob covering
  /// only the nodes touched since the previous checkpoint/checkpoint_delta
  /// of this runner. Requires a prior full checkpoint (or restore) so the
  /// engine has a chain head; restore_delta() must be applied to a runner
  /// already restored to the parent snapshot — the engine verifies the
  /// parent content hash and fails loudly on a mismatched or out-of-order
  /// delta, leaving the runner untouched.
  void checkpoint_delta(persist::Writer& w);
  persist::Status restore_delta(persist::Reader& r);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Execute one job start to finish. Exactly JobRunner{...}.run() + result().
JobResult run_job(const Scenario& sc, const JobSpec& spec,
                  std::size_t engine_workers = 1,
                  std::optional<verify::OracleConfig> oracle = std::nullopt);

struct RunOptions {
  std::size_t jobs = 1;            // parallel job-runner threads
  std::size_t engine_workers = 1;  // Engine::set_worker_threads per job
  /// Arms the invariant oracle on every job (JobRunner's `oracle`).
  std::optional<verify::OracleConfig> oracle;

  // --- checkpoint/resume (DESIGN.md D9) ---
  /// When set, the campaign maintains a checkpoint file at this path:
  /// rewritten (atomically) whenever a job completes, and — with
  /// checkpoint_every > 0 — whenever a running job crosses that many engine
  /// rounds since its last snapshot. Jobs checkpoint independently; the
  /// final report's bytes are identical to a run without checkpointing.
  ///
  /// Cost model: every flush re-serializes the WHOLE file (all jobs'
  /// snapshots) under one mutex — the price of a single atomically
  /// renamed resume file. Mid-job snapshots after the first are
  /// *incremental* (DESIGN.md D10): a kJobDelta blob covering only the
  /// hosts touched since the previous snapshot, chained by content hash,
  /// so a mostly-quiescent large engine pays KBs per flush instead of its
  /// full ~26 MB at 10k hosts (BM_CheckpointWrite / BM_DeltaCheckpointWrite).
  /// The runner rebases to a fresh full snapshot when the chain reaches
  /// 8 deltas or their summed size passes half the base.
  std::string checkpoint_path;
  std::uint64_t checkpoint_every = 0;
  /// When set, load this checkpoint first: done jobs keep their recorded
  /// results, in-progress jobs resume from their snapshots, pending jobs
  /// run from scratch. The file must belong to the same scenario (verified
  /// against Scenario::to_text) or the load fails loudly.
  std::string resume_path;
  /// Test/CI hook: abandon the campaign (CampaignReport::halted) after this
  /// many checkpoint-file writes, leaving a genuinely mid-run file behind
  /// for a --resume equivalence check. 0 = never halt.
  std::uint64_t halt_after_checkpoints = 0;

  // --- telemetry (DESIGN.md D12) ---
  /// When set, every job runs with a flight recorder, and jobs that fail —
  /// non-convergence or an oracle hard-fail — dump
  /// `<flight_dir>/<scenario>_job<index>.trace.json` (Chrome trace-event
  /// JSON) next to a `.scn` repro of the scenario. Diagnostic only: report
  /// bytes are identical with or without it.
  std::string flight_dir;
  /// Coverage seam (DESIGN.md D14): when set, every job runs with a flight
  /// recorder — exactly as flight_dir arms one — and the callback receives
  /// the finished job's result and its ring, on the job's thread, right
  /// after the result slot is written. The ring's event sequence is
  /// deterministic at any worker count, so consumers that reduce it to
  /// per-job values (the guided fuzzer's feature extraction) stay inside
  /// the D7 determinism contract. Diagnostic only: arming the sink never
  /// changes simulation or report bytes.
  std::function<void(const JobResult&, const obs::FlightRecorder&)>
      flight_sink;
  /// Accumulate wall-clock phase timings across all jobs into
  /// CampaignReport::perf. Never part of golden-diffed artifacts.
  bool profile = false;
};

/// Per-job slot of a campaign checkpoint file. An in-progress job is a
/// *chain*: one full BlobKind::kJob base snapshot plus zero or more
/// BlobKind::kJobDelta blobs, each covering only what changed since its
/// predecessor (DESIGN.md D10). Resume replays the base, then every delta in
/// order; the runner rebases (fresh full snapshot, chain cleared) when the
/// chain grows long or the deltas stop paying for themselves.
struct JobCheckpoint {
  enum class State : std::uint8_t { kPending = 0, kInProgress = 1, kDone = 2 };
  State state = State::kPending;
  std::vector<std::uint8_t> snapshot;  // kInProgress: a BlobKind::kJob blob
  std::vector<std::vector<std::uint8_t>> deltas;  // kInProgress: kJobDelta chain
  JobResult result;                    // kDone
};

/// Serialize/load a campaign checkpoint (BlobKind::kCampaign). The scenario
/// text is embedded and verified on load so a stale file from a different
/// scenario fails loudly instead of resuming nonsense.
persist::Status write_campaign_checkpoint(const std::string& path,
                                          const Scenario& sc,
                                          const std::vector<JobCheckpoint>& jobs);
persist::Status read_campaign_checkpoint(const std::string& path,
                                         const Scenario& sc,
                                         std::vector<JobCheckpoint>& out);

/// Run the whole campaign. The report (and its JSON/CSV serializations) is
/// byte-identical for any RunOptions — parallelism and checkpointing trade
/// wall clock and durability only.
CampaignReport run_campaign(const Scenario& sc, const RunOptions& opts = {});

}  // namespace chs::campaign
