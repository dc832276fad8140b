// Automatic repro minimization (DESIGN.md D8).
//
// When a campaign job fails — an oracle violation, a non-convergence, or a
// setup that never stabilizes — the raw repro is a whole scenario sweep
// plus a timeline of adversarial events, most of which are irrelevant. The
// minimizer shrinks it to a minimal deterministic repro by greedy delta
// debugging: collapse the sweep to the one failing job, then repeatedly
// try structure-shrinking candidate edits, keeping each edit iff the
// failure (same signature) still reproduces:
//
//   * drop timeline events, loss/partition/Byzantine windows outright;
//   * drop the serving workload, then the telemetry series (the guided
//     fuzzer's D14 axes — most failures need neither);
//   * halve churn/fault victim counts toward 1;
//   * halve event rounds toward 0 (tightens the timeline);
//   * halve workload knobs (rate, window, replication, prefill, skew)
//     when the workload itself is load-bearing;
//   * halve the host count toward 3 and the guest space toward the host
//     count (smaller state spaces, faster replays);
//   * replace the seed with small ones (1..4) for a tidier repro.
//
// Every candidate evaluation is one deterministic run_job with the oracle
// armed, so minimization itself is deterministic: same input, same probe
// budget, same minimized scenario. The result serializes to the .scn text
// format (Scenario::to_text) ready to commit as a regression test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "verify/oracle.hpp"

namespace chs::verify {

/// What counts as "the same failure" while shrinking.
struct FailureSignature {
  enum class Kind : std::uint8_t {
    kOracleViolation,  // oracle flagged an invariant; `invariant` must match
    kNoConvergence,    // timeline ran out of budget without reconverging
    kSetupFailure,     // the converged start never stabilized
  };
  Kind kind = Kind::kOracleViolation;
  /// kOracleViolation: required prefix of the violation message, typically
  /// the invariant tag ("I4"). Empty accepts any violation.
  std::string invariant;
};

const char* failure_kind_name(FailureSignature::Kind k);

/// Signature of a finished job, if it failed at all.
/// (Precedence: a violation outranks the convergence flags.)
bool job_failed(const campaign::JobResult& r, FailureSignature* sig);

struct MinimizeOptions {
  OracleConfig oracle;             // armed on every candidate replay
  std::size_t engine_workers = 1;
  /// Candidate evaluations allowed; minimization stops at the budget and
  /// returns the smallest repro found so far.
  std::uint64_t max_probes = 128;
};

struct MinimizeResult {
  campaign::Scenario scenario;   // minimized single-job scenario
  campaign::JobResult replay;    // outcome of the final repro run
  std::uint64_t probes = 0;      // candidate runs evaluated
  std::vector<std::string> steps;  // human-readable shrink log
};

/// Run (a single-job collapse of) `sc` and report whether it reproduces
/// `sig`. `out`, when non-null, receives the job result.
bool reproduces(const campaign::Scenario& sc, const FailureSignature& sig,
                const MinimizeOptions& opt,
                campaign::JobResult* out = nullptr);

/// Shrink the failing (scenario, job) pair to a minimal scenario that still
/// reproduces `sig`. The spec names which job of the sweep failed; the
/// result's scenario has exactly one job.
MinimizeResult minimize(const campaign::Scenario& sc,
                        const campaign::JobSpec& spec,
                        const FailureSignature& sig,
                        const MinimizeOptions& opt = {});

}  // namespace chs::verify
