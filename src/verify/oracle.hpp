// Online invariant oracle (DESIGN.md D8).
//
// The paper's invariants I1–I5 (core/invariants.hpp) are universally
// quantified over rounds; the property tests check them by rebuilding the
// god's-eye view after every round of hand-picked runs, which is O(n) per
// round and far too slow to arm by default. The oracle instead rides the
// engine's end-of-round observer (sim::Engine::set_round_observer) and
// re-evaluates *only what could have changed*:
//
//   * I2/I3/I5 are functions of one host's own state — re-checked only for
//     hosts in the round's dirty-snapshot set (stepped or externally
//     mutated; unstepped hosts cannot change state, so this is exact);
//   * I4 additionally depends on the host's incident edges — endpoints of
//     every applied edge mutation join the re-check set;
//   * I1 (connectivity) is maintained incrementally: edge additions cannot
//     disconnect, so the O(V + E) recompute runs only after rounds that
//     applied at least one deletion.
//
// A configurable stride trades latency for cost: with stride k the pending
// re-check set accumulates across k rounds and is evaluated against the
// state at the sampled round (violations that appear *and* heal strictly
// between samples are not observed). In the hard-failure mode the first
// violation also captures a trace of the offending round — the violating
// host, its neighborhood state, and the incident edges — and aborts the
// campaign job that armed it (campaign::RunOptions::oracle).
//
// Attaching runs one full check (all hosts + connectivity) so the
// incremental scheme starts from a verified base. The oracle is a
// read-only observer: it never perturbs the simulation, composes with the
// delivery filter and the D6 shard merge, and its verdicts are
// bit-for-bit identical at any worker count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/invariants.hpp"
#include "core/network.hpp"

namespace chs::obs {
class FlightRecorder;
}

namespace chs::verify {

struct OracleConfig {
  /// Evaluate every stride-th observed round (1 = every round).
  std::uint64_t stride = 1;
  /// Capture the offending round's trace and report failure upward
  /// (hard_failed() aborts the job). When false the oracle records the
  /// first violation and goes dormant, letting the run complete.
  bool hard_fail = true;
};

struct Violation {
  std::uint64_t round = 0;  // engine round the violation was observed at
  std::string what;         // e.g. "I4: host 7 succ -> 12 without an edge"
  std::string trace;        // offending-round context (hard_fail mode only)

  template <typename A>
  void persist_fields(A& a) {
    a(round);
    a(what);
    a(trace);
  }
};

class InvariantOracle {
 public:
  /// Attaches to the engine (installs the round observer) and runs the
  /// initial full check. The oracle must be detached — or destroyed —
  /// before the engine is.
  explicit InvariantOracle(core::StabEngine& eng, OracleConfig cfg = {});
  ~InvariantOracle();

  InvariantOracle(const InvariantOracle&) = delete;
  InvariantOracle& operator=(const InvariantOracle&) = delete;

  /// Evaluate any pending partial stride window, then uninstall the engine
  /// observer; the oracle keeps its verdict.
  void detach();
  bool armed() const { return eng_ != nullptr; }

  /// First violation observed, if any.
  const std::optional<Violation>& violation() const { return violation_; }
  /// A violation was recorded in hard_fail mode: the armed job aborts.
  bool hard_failed() const { return cfg_.hard_fail && violation_; }

  /// Blame attribution (DESIGN.md D11): declare which hosts are currently
  /// adversarial. A violation whose focus host is adversarial — or is a
  /// graph neighbor of one, the one-hop radius a lying snapshot can corrupt
  /// directly — is classified "adversary-induced, contained": counted, not
  /// recorded as the verdict, and exempt from hard_fail. I1 (connectivity)
  /// has no focus host and always stays a real violation: behaviors are
  /// designed to never sever edges, so a disconnect is a genuine bug even
  /// mid-attack. The set is runtime configuration like the engine's
  /// delivery filter — the campaign reinstalls it at window boundaries and
  /// after restore; it is not serialized.
  void set_adversarial(std::vector<graph::NodeId> ids) {
    std::sort(ids.begin(), ids.end());
    adversarial_ = std::move(ids);
  }
  /// Violations attributed to the adversary so far (monotone counter).
  std::uint64_t contained_violations() const { return contained_violations_; }

  /// Flight-recorder sink (DESIGN.md D12): when set, every classified
  /// violation is narrated into the ring — contained vs real, with the
  /// focus host. Diagnostic only; runtime configuration like the
  /// adversarial set, never serialized.
  void set_flight(obs::FlightRecorder* flight) { flight_ = flight; }

  /// Code paths exercised, one bit each (DESIGN.md D14). The guided fuzzer
  /// reads this as a free coverage signal: a scenario that drives the oracle
  /// down a path no earlier case reached is worth keeping in the corpus.
  enum Path : std::uint32_t {
    kPathAttachFull = 1u << 0,     // attach-time full check ran
    kPathDirtyRecheck = 1u << 1,   // incremental per-host re-check ran
    kPathDeltaEndpoints = 1u << 2, // edge-delta endpoints joined the set
    kPathDeletionRebuild = 1u << 3,// I1 recompute after a deletion round
    kPathStrideDefer = 1u << 4,    // stride > 1 deferred an evaluation
    kPathDetachFlush = 1u << 5,    // detach flushed a partial stride window
    kPathContained = 1u << 6,      // a violation was classified contained
    kPathNeighborBlame = 1u << 7,  // containment via a neighbor, not direct
    kPathRealViolation = 1u << 8,  // a violation became the verdict
    kPathTraceCapture = 1u << 9,   // hard-fail trace captured
  };
  std::uint32_t paths() const { return paths_; }

  /// Sampled rounds actually evaluated (stride-thinned; includes the
  /// attach-time full check).
  std::uint64_t rounds_checked() const { return rounds_checked_; }
  /// Per-host invariant evaluations performed — the oracle's work measure;
  /// compare against rounds * n for the naive rebuild.
  std::uint64_t hosts_checked() const { return hosts_checked_; }
  /// O(V + E) connectivity recomputations (deletion rounds only).
  std::uint64_t connectivity_rebuilds() const { return connectivity_rebuilds_; }

  /// Checkpoint/restore (DESIGN.md D9): the pending re-check set, stride
  /// phase, counters, and verdict round-trip so a resumed job reports
  /// oracle_* fields byte-identical to the uninterrupted run. Restored onto
  /// a freshly attached oracle whose engine state was itself restored — the
  /// attach-time full check's counters are overwritten here.
  template <typename A>
  void persist_fields(A& a) {
    a(pending_);
    a(pending_mark_);
    a(deletions_pending_);
    a(rounds_since_check_);
    a(rounds_checked_);
    a(hosts_checked_);
    a(connectivity_rebuilds_);
    a(violation_);
    a(contained_violations_);
    a(paths_);
  }

 private:
  void on_round(std::uint64_t round,
                std::span<const graph::NodeIndex> dirty,
                std::span<const sim::EdgeDelta> deltas);
  void evaluate(std::uint64_t round);
  /// Classify and store one violation. True = real (the verdict is set and
  /// the oracle goes dormant); false = adversary-induced, contained.
  bool record(std::uint64_t round, std::string what, graph::NodeId focus);
  bool is_adversarial(graph::NodeId id) const;
  std::string capture_trace(graph::NodeId focus) const;
  void mark_pending(graph::NodeIndex i);

  core::StabEngine* eng_ = nullptr;
  OracleConfig cfg_;
  std::vector<graph::NodeIndex> pending_;      // hosts awaiting re-check
  std::vector<std::uint8_t> pending_mark_;
  bool deletions_pending_ = false;             // I1 recompute needed
  std::uint64_t rounds_since_check_ = 0;
  std::uint64_t rounds_checked_ = 0;
  std::uint64_t hosts_checked_ = 0;
  std::uint64_t connectivity_rebuilds_ = 0;
  std::optional<Violation> violation_;
  std::uint64_t contained_violations_ = 0;
  std::uint32_t paths_ = 0;  // Path bits exercised so far
  std::vector<graph::NodeId> adversarial_;  // sorted; reinstalled, not saved
  obs::FlightRecorder* flight_ = nullptr;   // diagnostic sink, not saved
};

}  // namespace chs::verify
