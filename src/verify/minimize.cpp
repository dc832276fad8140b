#include "verify/minimize.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "persist/io.hpp"
#include "util/check.hpp"

namespace chs::verify {

using campaign::EventKind;
using campaign::JobResult;
using campaign::Scenario;

const char* failure_kind_name(FailureSignature::Kind k) {
  switch (k) {
    case FailureSignature::Kind::kOracleViolation: return "oracle-violation";
    case FailureSignature::Kind::kNoConvergence: return "no-convergence";
    case FailureSignature::Kind::kSetupFailure: return "setup-failure";
  }
  return "?";
}

namespace {

/// "I4: host 7 ..." -> "I4".
std::string invariant_tag(const std::string& violation) {
  const auto colon = violation.find(':');
  return colon == std::string::npos ? violation : violation.substr(0, colon);
}

/// Stall pathologies a shrink must never *introduce*: a freeze with no
/// later thaw stalls the network forever (trivially "reproducing" any
/// non-convergence), and a destructive event inside a stall window makes
/// invariant violations expected rather than interesting (the fuzz grammar
/// generates neither). A candidate that adds one would match almost any
/// failure signature while demonstrating nothing, masking the real bug.
/// The *original* scenario may carry them deliberately (the oracle's own
/// fixtures do), so the bar is relative: never worse than the current best.
struct StallBadness {
  std::size_t unpaired_freezes = 0;   // stall windows never closed
  std::size_t overlapped_events = 0;  // churn/fault/retarget while frozen

  bool worse_than(const StallBadness& o) const {
    return unpaired_freezes > o.unpaired_freezes ||
           overlapped_events > o.overlapped_events;
  }
};

StallBadness stall_badness(const campaign::Scenario& sc) {
  std::vector<campaign::TimelineEvent> events(sc.events);
  campaign::sort_events_by_round(events);
  StallBadness out;
  bool frozen = false;
  for (const auto& e : events) {
    switch (e.kind) {
      case EventKind::kFreeze:
        frozen = true;
        break;
      case EventKind::kThaw:
        frozen = false;
        break;
      default:
        if (frozen) ++out.overlapped_events;
        break;
    }
  }
  if (frozen) ++out.unpaired_freezes;
  return out;
}

}  // namespace

bool job_failed(const JobResult& r, FailureSignature* sig) {
  if (r.oracle_armed && !r.oracle_violation.empty()) {
    if (sig) {
      sig->kind = FailureSignature::Kind::kOracleViolation;
      sig->invariant = invariant_tag(r.oracle_violation);
    }
    return true;
  }
  if (!r.setup_converged) {
    if (sig) *sig = {FailureSignature::Kind::kSetupFailure, {}};
    return true;
  }
  if (!r.converged) {
    if (sig) *sig = {FailureSignature::Kind::kNoConvergence, {}};
    return true;
  }
  return false;
}

bool reproduces(const Scenario& sc, const FailureSignature& sig,
                const MinimizeOptions& opt, JobResult* out) {
  CHS_CHECK_MSG(sc.validate().empty(), "candidate failed validation");
  const auto jobs = campaign::expand_jobs(sc);
  CHS_CHECK_MSG(jobs.size() == 1, "reproduces() wants a single-job scenario");
  JobResult r = campaign::run_job(sc, jobs[0], opt.engine_workers, opt.oracle);
  FailureSignature got;
  const bool failed = job_failed(r, &got);
  if (out) *out = std::move(r);
  if (!failed || got.kind != sig.kind) return false;
  if (sig.kind == FailureSignature::Kind::kOracleViolation &&
      !sig.invariant.empty() && got.invariant != sig.invariant) {
    return false;
  }
  return true;
}

MinimizeResult minimize(const Scenario& sc0, const campaign::JobSpec& spec,
                        const FailureSignature& sig,
                        const MinimizeOptions& opt) {
  MinimizeResult res;
  // Collapse the sweep to the failing job: one family, one host count, one
  // seed. Everything after this point is a single deterministic simulation.
  Scenario sc = sc0;
  sc.name = sc0.name + "-min";
  sc.families = {spec.family};
  sc.host_counts = {spec.n_hosts};
  sc.seed_lo = sc.seed_hi = spec.seed;
  res.scenario = sc;

  ++res.probes;
  if (!reproduces(sc, sig, opt, &res.replay)) {
    res.steps.push_back("failure did not reproduce on the collapsed scenario");
    return res;
  }

  // --- windowed time-travel (DESIGN.md D9) ----------------------------------
  // For oracle violations the failure has a round; snapshot the collapsed
  // job `window` engine rounds before it, and serve every suffix-only
  // candidate edit by restoring the snapshot instead of replaying from
  // round 0. The snapshot state is identical to any eligible candidate's
  // full-run state at that round (identical config and prefix => identical
  // deterministic execution), so windowed verdicts equal full-run verdicts.
  struct TimeTravel {
    std::vector<std::uint8_t> snapshot;  // BlobKind::kJob blob
    campaign::Scenario base;             // scenario the snapshot belongs to
    bool in_timeline = false;
    std::uint64_t t = 0;             // timeline round at capture
    std::uint64_t engine_round = 0;  // engine round at capture
    std::uint64_t setup_rounds = 0;  // setup length of the captured run
  };
  std::optional<TimeTravel> tt;
  if (opt.window > 0 &&
      sig.kind == FailureSignature::Kind::kOracleViolation) {
    const std::uint64_t fail_round = res.replay.oracle_round;
    const std::uint64_t target =
        fail_round > opt.window ? fail_round - opt.window : 0;
    const auto jobs = campaign::expand_jobs(res.scenario);
    campaign::JobRunner runner(res.scenario, jobs[0], opt.engine_workers,
                               opt.oracle);
    TimeTravel cap;
    bool captured = false;
    runner.run([&](campaign::JobRunner& jr) {
      if (jr.engine_round() < target) return true;
      persist::Writer w(persist::BlobKind::kJob);
      jr.checkpoint(w);
      cap.snapshot = w.take();
      cap.in_timeline = jr.in_timeline();
      cap.t = jr.timeline_round();
      cap.engine_round = jr.engine_round();
      captured = true;
      return false;  // snapshot taken; no need to finish this replay
    });
    if (captured) {
      cap.base = res.scenario;
      cap.setup_rounds = res.replay.setup_rounds;
      res.steps.push_back(
          "time-travel snapshot at engine round " +
          std::to_string(cap.engine_round) + " (violation at " +
          std::to_string(fail_round) + ", window " +
          std::to_string(opt.window) + ")");
      tt = std::move(cap);
    }
  }

  const auto prefix_events = [](const campaign::Scenario& s,
                                std::uint64_t before) {
    std::vector<campaign::TimelineEvent> evs(s.events);
    campaign::sort_events_by_round(evs);
    std::erase_if(evs, [before](const campaign::TimelineEvent& e) {
      return e.round >= before;
    });
    return evs;
  };
  // Candidates the snapshot can serve: identical configuration and an
  // identical already-executed prefix. A setup-stage snapshot has applied
  // no events and built no adversary, so only the config (and enough
  // budget to reach the snapshot) must match; a timeline-stage snapshot
  // additionally pins the loss/partition windows (the adversary pre-draws
  // from them and the filter reads them all) and the applied event prefix.
  const auto windowed_eligible = [&](const campaign::Scenario& cand) {
    if (!tt) return false;
    const campaign::Scenario& b = tt->base;
    if (cand.n_guests != b.n_guests || cand.host_counts != b.host_counts ||
        cand.families != b.families || cand.seed_lo != b.seed_lo ||
        cand.seed_hi != b.seed_hi || cand.target != b.target ||
        cand.delay != b.delay || cand.delay_model != b.delay_model ||
        cand.start != b.start || cand.series_stride != b.series_stride ||
        cand.series_cap != b.series_cap || cand.workload != b.workload) {
      // Series recording and the serving workload carry state from the
      // first round on (sampling cursor, key space, in-flight ops), so a
      // snapshot only serves candidates that keep them verbatim.
      return false;
    }
    if (!tt->in_timeline) return cand.max_rounds >= tt->engine_round;
    // The timeline adversary pre-draws from the loss/partition/Byzantine
    // windows and maps domains from racks/zones, so a snapshot only serves
    // candidates that keep all of them verbatim.
    if (cand.losses != b.losses || cand.partitions != b.partitions ||
        cand.byzantine != b.byzantine || cand.racks != b.racks ||
        cand.zones != b.zones) {
      return false;
    }
    if (cand.max_rounds < std::max(tt->setup_rounds, tt->t)) return false;
    return prefix_events(cand, tt->t) == prefix_events(b, tt->t);
  };
  const auto reproduces_windowed = [&](const campaign::Scenario& cand,
                                       JobResult* out) {
    const auto jobs = campaign::expand_jobs(cand);
    CHS_CHECK(jobs.size() == 1);
    campaign::JobRunner runner(cand, jobs[0], opt.engine_workers, opt.oracle);
    persist::Reader r(tt->snapshot);
    auto s = r.expect_header(persist::BlobKind::kJob);
    if (s.ok) s = runner.restore(r);
    if (s.ok) s = r.expect_end();
    CHS_CHECK_MSG(s.ok, s.error.c_str());
    runner.run();
    JobResult jr = runner.result();
    FailureSignature got;
    const bool failed = job_failed(jr, &got);
    if (out) *out = std::move(jr);
    if (!failed || got.kind != sig.kind) return false;
    return sig.invariant.empty() || got.invariant == sig.invariant;
  };

  const auto try_candidate = [&](Scenario cand,
                                 const std::string& what) -> bool {
    if (res.probes >= opt.max_probes) return false;
    if (!cand.validate().empty()) return false;
    // Rejecting stall regressions structurally (no probe spent): dropping
    // only the thaw of a freeze/thaw pair, or sliding a freeze under a
    // churn, would "reproduce" the signature for the wrong reason.
    if (stall_badness(cand).worse_than(stall_badness(res.scenario))) {
      return false;
    }
    ++res.probes;
    JobResult r;
    bool ok;
    if (windowed_eligible(cand)) {
      ++res.windowed_replays;
      ok = reproduces_windowed(cand, &r);
    } else {
      ++res.full_replays;
      ok = reproduces(cand, sig, opt, &r);
    }
    if (!ok) return false;
    res.scenario = std::move(cand);
    res.replay = std::move(r);
    res.steps.push_back(what);
    return true;
  };

  bool changed = true;
  while (changed && res.probes < opt.max_probes) {
    changed = false;
    // Drop whole timeline elements first — the largest single wins.
    for (std::size_t i = 0; i < res.scenario.events.size(); ++i) {
      Scenario cand = res.scenario;
      cand.events.erase(cand.events.begin() + static_cast<std::ptrdiff_t>(i));
      if (try_candidate(std::move(cand),
                        "drop event #" + std::to_string(i))) {
        changed = true;
        break;
      }
    }
    if (changed) continue;
    for (std::size_t i = 0; i < res.scenario.losses.size(); ++i) {
      Scenario cand = res.scenario;
      cand.losses.erase(cand.losses.begin() + static_cast<std::ptrdiff_t>(i));
      if (try_candidate(std::move(cand), "drop loss window")) {
        changed = true;
        break;
      }
    }
    if (changed) continue;
    for (std::size_t i = 0; i < res.scenario.partitions.size(); ++i) {
      Scenario cand = res.scenario;
      cand.partitions.erase(cand.partitions.begin() +
                            static_cast<std::ptrdiff_t>(i));
      if (try_candidate(std::move(cand), "drop partition window")) {
        changed = true;
        break;
      }
    }
    if (changed) continue;
    for (std::size_t i = 0; i < res.scenario.byzantine.size(); ++i) {
      Scenario cand = res.scenario;
      cand.byzantine.erase(cand.byzantine.begin() +
                           static_cast<std::ptrdiff_t>(i));
      if (try_candidate(std::move(cand), "drop byzantine window")) {
        changed = true;
        break;
      }
    }
    if (changed) continue;
    // Mutation-origin directives (the guided grammar's D14 axes) drop next:
    // most failures do not need guest traffic or telemetry to reproduce.
    // The workload goes before the series — validate only admits a
    // series-free scenario once no workload references the recorder.
    if (res.scenario.workload_armed()) {
      Scenario cand = res.scenario;
      cand.workload = {};
      if (try_candidate(std::move(cand), "drop workload")) {
        changed = true;
        continue;
      }
    }
    if (res.scenario.series_stride > 0) {
      Scenario cand = res.scenario;
      cand.series_stride = 0;
      if (try_candidate(std::move(cand), "drop series")) {
        changed = true;
        continue;
      }
    }
    if (res.scenario.delay_model != "uniform") {
      Scenario cand = res.scenario;
      cand.delay_model = "uniform";
      if (try_candidate(std::move(cand), "drop delay model")) {
        changed = true;
        continue;
      }
    }
    // Domain declarations go once nothing references them (validate rejects
    // the candidate while a scoped window or outage event remains).
    if (res.scenario.racks != 0) {
      Scenario cand = res.scenario;
      cand.racks = 0;
      cand.zones = 0;
      if (try_candidate(std::move(cand), "drop failure domains")) {
        changed = true;
        continue;
      }
    }
    // Shrink event parameters: victim counts and application rounds halve.
    for (std::size_t i = 0; i < res.scenario.events.size(); ++i) {
      const auto& e = res.scenario.events[i];
      if ((e.kind == EventKind::kChurn || e.kind == EventKind::kFault) &&
          e.count > 1) {
        Scenario cand = res.scenario;
        cand.events[i].count /= 2;
        if (try_candidate(std::move(cand),
                          "halve event #" + std::to_string(i) + " count")) {
          changed = true;
          break;
        }
      }
      if (e.round > 0) {
        Scenario cand = res.scenario;
        cand.events[i].round /= 2;
        if (try_candidate(std::move(cand),
                          "halve event #" + std::to_string(i) + " round")) {
          changed = true;
          break;
        }
      }
    }
    if (changed) continue;
    // Shrink workload knobs when the workload itself is load-bearing: rate
    // toward 1 op/round, the window toward its open, replication / prefill /
    // skew toward the trivial settings.
    if (res.scenario.workload_armed()) {
      const campaign::WorkloadSpec& w = res.scenario.workload;
      if (w.rate > 1) {
        Scenario cand = res.scenario;
        cand.workload.rate /= 2;
        if (try_candidate(std::move(cand), "halve workload rate")) {
          changed = true;
          continue;
        }
      }
      if (w.end - w.begin > 2) {
        Scenario cand = res.scenario;
        cand.workload.end = w.begin + (w.end - w.begin) / 2;
        if (try_candidate(std::move(cand), "halve workload window")) {
          changed = true;
          continue;
        }
      }
      if (w.replicas > 1) {
        Scenario cand = res.scenario;
        cand.workload.replicas = 1;
        if (try_candidate(std::move(cand), "drop workload replication")) {
          changed = true;
          continue;
        }
      }
      if (w.prefill > 0) {
        Scenario cand = res.scenario;
        cand.workload.prefill = 0;
        if (try_candidate(std::move(cand), "drop workload prefill")) {
          changed = true;
          continue;
        }
      }
      if (w.zipf > 0) {
        Scenario cand = res.scenario;
        cand.workload.zipf = 0;
        if (try_candidate(std::move(cand), "drop workload skew")) {
          changed = true;
          continue;
        }
      }
    }
    // Shrink the configuration: hosts toward 3, guests toward the hosts.
    if (res.scenario.host_counts[0] > 3) {
      Scenario cand = res.scenario;
      cand.host_counts[0] = std::max<std::size_t>(3, cand.host_counts[0] / 2);
      if (try_candidate(std::move(cand), "halve host count")) {
        changed = true;
        continue;
      }
    }
    if (res.scenario.n_guests / 2 >= res.scenario.host_counts[0] &&
        res.scenario.n_guests > 8) {
      Scenario cand = res.scenario;
      cand.n_guests = std::max<std::uint64_t>(8, cand.n_guests / 2);
      if (try_candidate(std::move(cand), "halve guest space")) {
        changed = true;
        continue;
      }
    }
    // A small seed makes the repro tidier; purely cosmetic, tried last.
    // Strictly decreasing only: accepting any equally-reproducing seed
    // would ping-pong between them, burning the whole probe budget.
    for (std::uint64_t s = 1; s <= 4; ++s) {
      if (s >= res.scenario.seed_lo) continue;
      Scenario cand = res.scenario;
      cand.seed_lo = cand.seed_hi = s;
      if (try_candidate(std::move(cand),
                        "re-seed to " + std::to_string(s))) {
        changed = true;
        break;
      }
    }
    if (changed) continue;
    // Tighten the round budget for oracle repros so the committed .scn
    // replays in seconds. (Non-convergence repros keep their budget: the
    // budget *is* the claim.)
    if (sig.kind == FailureSignature::Kind::kOracleViolation) {
      // The budget bounds the setup phase and the timeline independently,
      // so it must still cover whichever was longer in the last replay.
      const std::uint64_t want = std::max(
          res.scenario.timeline_end(),
          std::max(res.replay.rounds, res.replay.setup_rounds) + 64);
      if (want < res.scenario.max_rounds) {
        Scenario cand = res.scenario;
        cand.max_rounds = want;
        if (try_candidate(std::move(cand), "tighten round budget")) {
          changed = true;
          continue;
        }
      }
    }
  }

  // Canonical event order for the emitted .scn (run_job sorts anyway).
  campaign::sort_events_by_round(res.scenario.events);
  return res;
}

}  // namespace chs::verify
