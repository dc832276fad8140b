#include "verify/fuzzer.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <set>
#include <utility>

#include "obs/flight.hpp"
#include "persist/fields.hpp"
#include "util/check.hpp"

namespace chs::verify {

using campaign::EventKind;
using campaign::JobResult;
using campaign::Scenario;
using campaign::StartMode;

namespace {

namespace fs = std::filesystem;

// Keeps the fuzz case streams disjoint from every engine / adversary
// lineage (those split job seeds; this splits the fuzz seed).
constexpr std::uint64_t kFuzzStreamSalt = 0xfa22'9b01'77c3'55e9ULL;

const adversary::BehaviorKind kByzKinds[] = {
    adversary::BehaviorKind::kLiar, adversary::BehaviorKind::kDropper,
    adversary::BehaviorKind::kSelective,
    adversary::BehaviorKind::kMergeRefuser};

const std::string& pick_target(util::Rng& rng) {
  const auto& names = campaign::all_target_names();
  return names[rng.next_below(names.size())];
}

std::string describe_failure(const JobResult& r,
                             const FailureSignature& sig) {
  switch (sig.kind) {
    case FailureSignature::Kind::kOracleViolation:
      return r.oracle_violation + " @ round " + std::to_string(r.oracle_round);
    case FailureSignature::Kind::kNoConvergence:
      return "not converged after " + std::to_string(r.rounds) + " timeline rounds";
    case FailureSignature::Kind::kSetupFailure:
      return "setup never stabilized (" + std::to_string(r.setup_rounds) +
             " rounds)";
  }
  return "?";
}

// --- coverage features (DESIGN.md D14) -------------------------------------

/// 6-bit FNV-1a bucket for transition-note strings ("cbt->chord",
/// "none->proposed", ...). The note vocabulary is small and fixed by the
/// protocol, so bucket collisions cost a little resolution, never
/// determinism.
std::uint32_t note_bucket(const std::string& s) {
  std::uint32_t h = 2166136261u;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 16777619u;
  }
  return h & 0x3fu;
}

/// log2 magnitude bucket, capped at 15 — turns convergence-round and
/// latency outliers into a handful of classes instead of a continuum.
std::uint32_t log2_bucket(std::uint64_t v) {
  std::uint32_t b = 0;
  while (v > 1 && b < 15) {
    v >>= 1;
    ++b;
  }
  return b;
}

/// "I4: host 7 ..." -> 4 (0 when the message has no I<digit> prefix).
std::uint32_t invariant_index(const std::string& what) {
  if (what.size() >= 2 && what[0] == 'I' && what[1] >= '1' && what[1] <= '9') {
    return static_cast<std::uint32_t>(what[1] - '0');
  }
  return 0;
}

/// Per-job coverage side channel: filled on the job's thread (probe finish
/// + flight sink), merged by the sequential fuzz loop in job-index order.
struct JobCoverage {
  std::uint32_t oracle_paths = 0;
  std::vector<Feature> flight;
};

void flight_features(const obs::FlightRecorder& fl,
                     std::vector<Feature>& out) {
  for (const obs::FlightEvent& e : fl.events()) {
    out.push_back(0x0300u | static_cast<std::uint32_t>(e.kind));
    switch (e.kind) {
      case obs::FlightKind::kPhase:
        out.push_back(0x0340u | note_bucket(e.note));
        break;
      case obs::FlightKind::kMergeStage:
        out.push_back(0x0380u | note_bucket(e.note));
        break;
      case obs::FlightKind::kViolationContained:
        out.push_back(0x0110u | invariant_index(e.note));
        break;
      case obs::FlightKind::kViolationReal:
        out.push_back(0x0100u | invariant_index(e.note));
        break;
      default:
        break;
    }
  }
}

/// Reduce one finished job to its coverage classes (header block map).
std::vector<Feature> job_features(const JobResult& r, const JobCoverage& jc) {
  std::vector<Feature> f;
  f.push_back(r.setup_converged ? 0x0011u : 0x0012u);
  f.push_back(r.converged ? 0x0013u : 0x0014u);
  f.push_back(0x0020u | log2_bucket(r.setup_rounds));
  f.push_back(0x0030u | log2_bucket(r.rounds));
  for (const campaign::EventOutcome& e : r.events) {
    const auto k = static_cast<std::uint32_t>(e.kind);
    f.push_back(0x0050u | k);
    f.push_back((e.recovered ? 0x0060u : 0x0070u) | k);
    if (e.recovered) f.push_back(0x0080u | log2_bucket(e.recovery_rounds));
  }
  if (!r.oracle_violation.empty()) {
    f.push_back(0x0100u | invariant_index(r.oracle_violation));
  }
  if (r.contained_violations > 0) f.push_back(0x0120u);
  for (std::uint32_t b = 0; b < 16; ++b) {
    if (jc.oracle_paths & (1u << b)) {
      f.push_back(0x0140u | b);
      // Bits 0-5 are the oracle's check machinery (attach-full,
      // dirty-recheck, delta-endpoints, deletion-rebuild, stride-defer,
      // detach-flush): fold them into the invariant-check-class block too,
      // so invariant_classes counts the check kinds *exercised* alongside
      // any violation classes seen (Skip+ local-checkability decomposition
      // as a free coverage signal).
      if (b <= 5) f.push_back(0x0130u | b);
    }
  }
  if (r.adversary_armed) {
    f.push_back(0x0180u);
    f.push_back(r.correct_converged ? 0x0181u : 0x0182u);
    for (const auto& w : r.byz_windows) {
      if (w.contained > 0) f.push_back(0x0183u);
    }
  }
  if (r.series_armed) {
    f.push_back(0x01C0u);
    f.push_back(0x01D0u | log2_bucket(r.series.size()));
  }
  if (r.workload_armed) {
    f.push_back(0x0200u);
    if (r.wl_timeouts > 0) f.push_back(0x0201u);
    if (r.wl_retries > 0) f.push_back(0x0202u);
    if (r.wl_drops > 0) f.push_back(0x0203u);
    if (r.wl_issued > 0) {
      f.push_back(0x0210u | static_cast<std::uint32_t>(
                                (r.wl_completed * 10) / r.wl_issued));
    }
    f.push_back(0x0220u | log2_bucket(r.wl_p99));
    f.push_back(0x0230u | log2_bucket(r.wl_peak_inflight));
  }
  f.insert(f.end(), jc.flight.begin(), jc.flight.end());
  std::sort(f.begin(), f.end());
  f.erase(std::unique(f.begin(), f.end()), f.end());
  return f;
}

/// OracleProbe that additionally drains the oracle's code-path bitmask into
/// the fuzz loop's per-job coverage slot when the job finishes.
class CoverageProbe final : public OracleProbe {
 public:
  CoverageProbe(OracleConfig cfg, JobCoverage* slot)
      : OracleProbe(cfg), slot_(slot) {}
  void finish(campaign::JobResult& out) override {
    OracleProbe::finish(out);
    if (oracle()) slot_->oracle_paths = oracle()->paths();
  }

 private:
  JobCoverage* slot_;
};

// --- structural mutation operators (DESIGN.md D14) -------------------------

std::uint64_t min_host_count(const Scenario& sc) {
  std::uint64_t m = sc.host_counts[0];
  for (std::size_t h : sc.host_counts) m = std::min<std::uint64_t>(m, h);
  return m;
}

/// The freeze/thaw stall window of `sc`, if any ([kNone, kNone) when none).
/// Mutations never move a destructive event into it — violations under a
/// stall are expected, not interesting (see the grammar's freeze comment).
std::pair<std::uint64_t, std::uint64_t> stall_window(const Scenario& sc) {
  std::uint64_t fz = UINT64_MAX, th = UINT64_MAX;
  for (const auto& e : sc.events) {
    if (e.kind == EventKind::kFreeze) fz = e.round;
    if (e.kind == EventKind::kThaw) th = e.round;
  }
  return {fz, th};
}

/// After structural edits the base's (possibly tightened) round budget may
/// no longer cover the timeline; re-widen instead of producing an invalid
/// mutant. Headroom matches the grammar's own slack.
void cover_timeline(Scenario& sc) {
  sc.max_rounds = std::max(sc.max_rounds, sc.timeline_end() + 64);
}

/// Redraw exactly one knob of the base from its grammar distribution.
/// Event rounds redraw below 150 — strictly before any freeze/thaw pair
/// (those begin at >= 150), so a perturbation cannot slide a destructive
/// event into a stall window.
Scenario mutate_perturb(const Scenario& base, std::uint64_t case_index,
                        util::Rng& rng) {
  Scenario sc = base;
  sc.name = "fuzz-" + std::to_string(case_index);
  const std::uint64_t min_hosts = min_host_count(sc);
  std::vector<std::function<void(util::Rng&)>> knobs;
  for (std::size_t i = 0; i < sc.events.size(); ++i) {
    switch (sc.events[i].kind) {
      case EventKind::kChurn:
        knobs.push_back([&sc, i](util::Rng& r) {
          sc.events[i].round = r.next_below(150);
        });
        knobs.push_back([&sc, i, min_hosts](util::Rng& r) {
          sc.events[i].count = 1 + r.next_below(min_hosts - 1);
        });
        break;
      case EventKind::kFault:
        knobs.push_back([&sc, i](util::Rng& r) {
          sc.events[i].round = r.next_below(150);
        });
        knobs.push_back([&sc, i](util::Rng& r) {
          sc.events[i].count = 1 + r.next_below(2);
        });
        break;
      case EventKind::kRetarget:
        knobs.push_back([&sc, i](util::Rng& r) {
          sc.events[i].round = r.next_below(150);
        });
        knobs.push_back([&sc, i](util::Rng& r) {
          sc.events[i].target = pick_target(r);
        });
        break;
      default:
        break;  // freeze/thaw pairs and outage domains stay untouched
    }
  }
  for (std::size_t i = 0; i < sc.losses.size(); ++i) {
    knobs.push_back([&sc, i](util::Rng& r) {
      sc.losses[i].begin = r.next_below(100);
      sc.losses[i].end = sc.losses[i].begin + 10 + r.next_below(80);
    });
    knobs.push_back([&sc, i](util::Rng& r) {
      sc.losses[i].rate = static_cast<double>(1 + r.next_below(9)) / 10.0;
    });
  }
  for (std::size_t i = 0; i < sc.partitions.size(); ++i) {
    knobs.push_back([&sc, i](util::Rng& r) {
      sc.partitions[i].begin = r.next_below(100);
      sc.partitions[i].end = sc.partitions[i].begin + 10 + r.next_below(60);
    });
  }
  for (std::size_t i = 0; i < sc.byzantine.size(); ++i) {
    knobs.push_back([&sc, i](util::Rng& r) {
      sc.byzantine[i].begin = r.next_below(80);
      sc.byzantine[i].end = sc.byzantine[i].begin + 10 + r.next_below(60);
    });
    knobs.push_back([&sc, i](util::Rng& r) {
      sc.byzantine[i].fraction =
          static_cast<double>(1 + r.next_below(3)) / 10.0;
    });
    knobs.push_back([&sc, i](util::Rng& r) {
      sc.byzantine[i].kind = kByzKinds[r.next_below(4)];
    });
  }
  if (sc.series_stride > 0) {
    knobs.push_back(
        [&sc](util::Rng& r) { sc.series_stride = 1 + r.next_below(8); });
  }
  if (sc.workload_armed()) {
    knobs.push_back(
        [&sc](util::Rng& r) { sc.workload.rate = 1 + r.next_below(4); });
    knobs.push_back([&sc](util::Rng& r) {
      sc.workload.begin = r.next_below(60);
      sc.workload.end = sc.workload.begin + 20 + r.next_below(80);
    });
    knobs.push_back([&sc](util::Rng& r) {
      sc.workload.replicas = 1 + static_cast<std::uint32_t>(r.next_below(3));
    });
  }
  knobs.push_back([&sc](util::Rng& r) {
    const std::uint64_t span = sc.seed_hi - sc.seed_lo;
    sc.seed_lo = 1 + r.next_below(1000);
    sc.seed_hi = sc.seed_lo + span;
  });
  if (sc.delay_model == "uniform") {
    knobs.push_back([&sc](util::Rng& r) {
      sc.delay = r.next_below(5) == 0 ? 2 : 1;
    });
  }
  knobs[rng.next_below(knobs.size())](rng);
  campaign::sort_events_by_round(sc.events);
  cover_timeline(sc);
  return sc;
}

/// Copy a coin-selected subset of `other`'s timeline elements into `base`:
/// churn/fault/retarget events (clamped to the base's host count, remapped
/// out of its stall window), global loss/partition windows, and Byzantine
/// windows. Freeze/thaw pairs and domain-scoped elements stay home — pairs
/// must not split, and domains rarely line up across entries.
Scenario mutate_splice(const Scenario& base, const Scenario& other,
                       std::uint64_t case_index, util::Rng& rng) {
  Scenario sc = base;
  sc.name = "fuzz-" + std::to_string(case_index);
  const std::uint64_t min_hosts = min_host_count(sc);
  const auto [fz, th] = stall_window(sc);
  for (const campaign::TimelineEvent& e : other.events) {
    if (sc.events.size() >= 10) break;
    if (e.kind != EventKind::kChurn && e.kind != EventKind::kFault &&
        e.kind != EventKind::kRetarget) {
      continue;
    }
    if (rng.next_below(2) != 0) continue;
    campaign::TimelineEvent ev = e;
    if (ev.kind == EventKind::kChurn) {
      ev.count = std::clamp<std::uint64_t>(ev.count, 1, min_hosts - 1);
    } else if (ev.kind == EventKind::kFault) {
      ev.count = std::clamp<std::uint64_t>(ev.count, 1, min_hosts);
    }
    if (fz != UINT64_MAX && ev.round >= fz &&
        (th == UINT64_MAX || ev.round <= th)) {
      ev.round = rng.next_below(150);
    }
    sc.events.push_back(ev);
  }
  for (const campaign::LossWindow& w : other.losses) {
    if (sc.losses.size() >= 6) break;
    if (w.scope != campaign::kScopeGlobal) continue;
    if (rng.next_below(2) == 0) sc.losses.push_back(w);
  }
  for (const campaign::PartitionWindow& w : other.partitions) {
    if (sc.partitions.size() >= 4) break;
    if (w.scope != campaign::kScopeGlobal) continue;
    if (rng.next_below(2) == 0) sc.partitions.push_back(w);
  }
  for (const campaign::ByzantineWindow& w : other.byzantine) {
    if (sc.byzantine.size() >= 4) break;
    if (rng.next_below(2) == 0) sc.byzantine.push_back(w);
  }
  campaign::sort_events_by_round(sc.events);
  cover_timeline(sc);
  return sc;
}

/// Append a fresh grammar-drawn suffix after everything the base already
/// does: 1-3 destructive events (and maybe a loss window) in rounds the
/// base's timeline has finished with — probing whether the recovered
/// network survives a second act.
Scenario mutate_suffix(const Scenario& base, std::uint64_t case_index,
                       util::Rng& rng) {
  Scenario sc = base;
  sc.name = "fuzz-" + std::to_string(case_index);
  const std::uint64_t min_hosts = min_host_count(sc);
  const std::uint64_t from = std::max<std::uint64_t>(sc.timeline_end(), 250);
  const std::uint64_t n = 1 + rng.next_below(3);
  for (std::uint64_t k = 0; k < n; ++k) {
    const std::uint64_t round = from + rng.next_below(100);
    const std::uint64_t what = rng.next_below(20);
    if (what < 9) {
      sc.churn_at(round,
                  1 + rng.next_below(std::min<std::uint64_t>(3, min_hosts - 1)));
    } else if (what < 16) {
      sc.fault_at(round, 1 + rng.next_below(2));
    } else {
      sc.retarget_at(round, pick_target(rng));
    }
  }
  if (rng.next_below(3) == 0) {
    const std::uint64_t begin = from + rng.next_below(60);
    sc.loss(begin, begin + 10 + rng.next_below(60),
            static_cast<double>(1 + rng.next_below(9)) / 10.0);
  }
  campaign::sort_events_by_round(sc.events);
  cover_timeline(sc);
  return sc;
}

/// Fitness scheduling, shaped like Fast Downward's merge-selector scoring
/// loop: argmax of new_features / (1 + picked), cross-multiplied to stay in
/// integers, lowest index winning ties. Purely a function of corpus state —
/// no rng draw, so checkpoint/resume replays the identical pick sequence.
std::size_t pick_corpus_entry(const std::vector<CorpusEntry>& corpus) {
  std::size_t best = 0;
  for (std::size_t j = 1; j < corpus.size(); ++j) {
    const CorpusEntry& a = corpus[best];
    const CorpusEntry& b = corpus[j];
    if (b.new_features * (1 + a.picked) > a.new_features * (1 + b.picked)) {
      best = j;
    }
  }
  return best;
}

// --- corpus directory ------------------------------------------------------

std::vector<std::string> list_corpus(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir, ec)) {
    if (!de.is_regular_file(ec)) continue;
    const std::string name = de.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".scn") == 0) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

persist::Status hash_file(const std::string& path, std::uint64_t& out) {
  std::vector<std::uint8_t> bytes;
  if (auto s = persist::read_file(path, bytes); !s.ok) return s;
  out = persist::content_hash(bytes);
  return {};
}

/// One traversal writes (`R` = const FuzzResume) and reads a fuzz
/// checkpoint; read-side checks latch a Reader failure.
template <typename A, typename R>
void persist_fuzz(A& a, R& rs) {
  persist::section(a, persist::tag4("FUZZ"), [&] {
    a(rs.next_case);
    a(rs.partial);
  });
  // Corpus + scheduler state (DESIGN.md D14): the entries themselves, plus
  // the corpus directory's expected listing/hashes so --resume can verify
  // the on-disk corpus did not drift while the run was interrupted.
  persist::section(a, persist::tag4("CORP"), [&] {
    a(rs.had_corpus_dir);
    a(rs.seed_files);
    a(rs.corpus_files);
    a(rs.corpus_hashes);
    a(rs.partial.corpus);
    persist::require(a, rs.corpus_files.size() == rs.corpus_hashes.size(),
                     "fuzz checkpoint CORP section is inconsistent: file "
                     "listing and content hashes differ in length");
  });
}

persist::Status write_fuzz_checkpoint(const std::string& path,
                                      const FuzzResume& rs) {
  persist::Writer w(persist::BlobKind::kFuzz);
  persist_fuzz(w, rs);
  return persist::write_file(path, w.bytes());
}

}  // namespace

Scenario generate_scenario(std::uint64_t case_index, util::Rng& rng) {
  Scenario sc;
  sc.name = "fuzz-" + std::to_string(case_index);
  static const std::uint64_t kGuests[] = {32, 64, 128};
  sc.n_guests = kGuests[rng.next_below(3)];
  const std::size_t hosts = static_cast<std::size_t>(
      4 + rng.next_below(std::min<std::uint64_t>(10, sc.n_guests / 2 - 3)));
  sc.host_counts = {hosts};
  const auto families = graph::all_families();
  sc.families = {families[rng.next_below(families.size())]};
  sc.seed_lo = 1 + rng.next_below(1000);
  sc.seed_hi = sc.seed_lo + rng.next_below(2);  // 1 or 2 jobs
  sc.target = pick_target(rng);
  sc.delay = rng.next_below(5) == 0 ? 2 : 1;
  sc.start = rng.next_below(5) < 2 ? StartMode::kCold : StartMode::kConverged;
  sc.max_rounds = 200000;
  const std::uint64_t n_events = rng.next_below(4);  // 0..3
  for (std::uint64_t e = 0; e < n_events; ++e) {
    const std::uint64_t round = rng.next_below(150);
    const std::uint64_t what = rng.next_below(20);
    if (what < 9) {
      sc.churn_at(round,
                  1 + rng.next_below(std::min<std::uint64_t>(3, hosts - 2)));
    } else if (what < 16) {
      sc.fault_at(round, 1 + rng.next_below(2));
    } else {
      sc.retarget_at(round, pick_target(rng));
    }
  }
  if (rng.next_below(5) < 2) {
    const std::uint64_t begin = rng.next_below(100);
    sc.loss(begin, begin + 10 + rng.next_below(80),
            static_cast<double>(1 + rng.next_below(9)) / 10.0);
  }
  if (rng.next_below(10) < 3) {
    const std::uint64_t begin = rng.next_below(100);
    sc.partition(begin, begin + 10 + rng.next_below(60));
  }
  if (rng.next_below(4) == 0) {
    // A paired whole-network stall, placed after every destructive event
    // (those draw rounds < 150): a frozen network changes no state, so a
    // clean configuration stays clean through the stall, and on thaw the
    // protocol must absorb all the deadlines that expired mid-stall. An
    // *unpaired* freeze, or one overlapping churn, is deliberately never
    // generated — violations under an unrepaired stall are expected, not
    // bugs (that combination is the oracle's own test fixture).
    const std::uint64_t begin = 150 + rng.next_below(50);
    sc.freeze_at(begin).thaw_at(begin + 1 + rng.next_below(40));
  }
  // Bestiary draws (DESIGN.md D11) are appended strictly after the original
  // grammar so a given (seed, case) keeps its pre-bestiary draw prefix —
  // old repros still reproduce, the new axes only add windows.
  if (rng.next_below(4) == 0) {
    const std::uint64_t begin = rng.next_below(80);
    const std::uint64_t end = begin + 10 + rng.next_below(60);
    const double frac = static_cast<double>(1 + rng.next_below(3)) / 10.0;
    sc.byz(begin, end, frac, kByzKinds[rng.next_below(4)]);
  }
  if (rng.next_below(5) == 0) {
    // hosts >= 4, so racks in 2..4 always fits the one host count.
    sc.racks = static_cast<std::uint32_t>(2 + rng.next_below(3));
    if (rng.next_below(2) == 0) {
      sc.zones = static_cast<std::uint32_t>(1 + rng.next_below(sc.racks));
    }
    const std::uint64_t round = rng.next_below(150);
    if (sc.zones > 0 && rng.next_below(2) == 0) {
      sc.zone_outage_at(round, rng.next_below(sc.zones));
    } else {
      sc.rack_outage_at(round, rng.next_below(sc.racks));
    }
  }
  if (rng.next_below(5) == 0) {
    sc.delay = static_cast<std::uint32_t>(2 + rng.next_below(3));
    sc.delay_model = rng.next_below(2) == 0 ? "lognormal" : "bimodal-spike";
  }
  // D14 draws are appended strictly after the D11 bestiary block — the same
  // stability rule again: a given (seed, case) keeps its old draw prefix
  // byte-identical (pinned by the prefix-stability test); the new axes only
  // add directives and later-round events.
  if (rng.next_below(3) == 0) {
    static const std::uint64_t kCaps[] = {16, 32, 64};
    sc.series(1 + rng.next_below(8), kCaps[rng.next_below(3)]);
  }
  if (rng.next_below(4) == 0 && sc.start == StartMode::kConverged) {
    // Serving workload (D13): needs a converged start (the data plane
    // snapshots a converged network) and a series recorder to report into.
    if (sc.series_stride == 0) sc.series(4, 64);
    const std::uint64_t begin = rng.next_below(60);
    sc.serve(begin, begin + 20 + rng.next_below(80), 1 + rng.next_below(4));
    static const std::uint64_t kKeys[] = {64, 256, 1024};
    sc.workload.keys = kKeys[rng.next_below(3)];
    sc.workload.zipf = rng.next_below(2) == 0 ? 0.0 : 0.99;
    sc.workload.put_fraction = static_cast<double>(rng.next_below(5)) / 10.0;
    sc.workload.replicas = 1 + static_cast<std::uint32_t>(rng.next_below(3));
    if (rng.next_below(2) == 0) sc.workload.prefill = sc.workload.keys / 4;
  }
  if (rng.next_below(8) == 0) {
    // Flash crowd: every host but one crashes and rejoins through the guest
    // model simultaneously — the mass-join shape the ROADMAP left open.
    // Placed after any freeze/thaw pair (those close by round 240).
    sc.churn_at(245 + rng.next_below(50), hosts - 1);
  }
  if (rng.next_below(8) == 0) {
    // Long-soak churn: a drizzle of small churns over a long tail, again
    // strictly after the stall-window era.
    const std::uint64_t n = 3 + rng.next_below(6);
    std::uint64_t round = 250;
    for (std::uint64_t k = 0; k < n; ++k) {
      round += 40 + rng.next_below(40);
      sc.churn_at(round, 1 + rng.next_below(2));
    }
  }
  campaign::sort_events_by_round(sc.events);
  CHS_CHECK_MSG(sc.validate().empty(), "fuzz grammar emitted invalid scenario");
  return sc;
}

persist::Status read_fuzz_checkpoint(const std::string& path,
                                     std::uint64_t expect_seed,
                                     FuzzResume& out) {
  std::vector<std::uint8_t> bytes;
  if (auto s = persist::read_file(path, bytes); !s.ok) return s;
  persist::Reader r(bytes);
  if (auto s = r.expect_header(persist::BlobKind::kFuzz); !s.ok) return s;
  if (auto s = r.validate_sections(); !s.ok) return s;
  persist_fuzz(r, out);
  if (!r.ok()) return r.status();
  if (auto s = r.expect_end(); !s.ok) return s;
  if (out.partial.seed != expect_seed) {
    return persist::Status::failure(
        "fuzz checkpoint was recorded under seed " +
        std::to_string(out.partial.seed) + ", not " +
        std::to_string(expect_seed));
  }
  return {};
}

persist::Status check_corpus_binding(const FuzzResume& rs,
                                     const std::string& corpus_dir) {
  const bool want = !corpus_dir.empty();
  if (rs.had_corpus_dir != want) {
    return persist::Status::failure(
        rs.had_corpus_dir
            ? "fuzz checkpoint CORP section records a corpus directory, but "
              "the resume ran without --corpus"
            : "fuzz checkpoint CORP section records no corpus directory, but "
              "the resume supplied --corpus");
  }
  if (!want) return {};
  const std::vector<std::string> names = list_corpus(corpus_dir);
  if (names != rs.corpus_files) {
    std::string detail = "listing differs";
    for (const std::string& n : rs.corpus_files) {
      if (!std::binary_search(names.begin(), names.end(), n)) {
        detail = "missing '" + n + "'";
        break;
      }
    }
    if (detail == "listing differs") {
      for (const std::string& n : names) {
        if (!std::binary_search(rs.corpus_files.begin(),
                                rs.corpus_files.end(), n)) {
          detail = "unexpected '" + n + "'";
          break;
        }
      }
    }
    return persist::Status::failure(
        "fuzz checkpoint CORP section disagrees with corpus directory '" +
        corpus_dir + "': " + detail);
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::uint64_t h = 0;
    if (auto s = hash_file(corpus_dir + "/" + names[i], h); !s.ok) return s;
    if (h != rs.corpus_hashes[i]) {
      return persist::Status::failure(
          "fuzz checkpoint CORP section disagrees with corpus directory '" +
          corpus_dir + "': file '" + names[i] +
          "' changed since the checkpoint");
    }
  }
  return {};
}

FuzzReport run_fuzz(const FuzzOptions& opt) {
  // The run's resumable state, which a checkpoint holds verbatim.
  FuzzResume st;
  FuzzReport& rep = st.partial;
  const bool has_dir = opt.guided && !opt.corpus_dir.empty();
  st.had_corpus_dir = has_dir;
  std::vector<std::string>& seed_files = st.seed_files;
  std::vector<Scenario> seed_scenarios;
  std::vector<std::string>& corpus_files = st.corpus_files;
  std::vector<std::uint64_t>& corpus_hashes = st.corpus_hashes;

  const auto load_seed = [&](const std::string& name) {
    std::string err;
    auto sc = campaign::load_scenario(opt.corpus_dir + "/" + name, &err);
    CHS_CHECK_MSG(sc.has_value(), err.c_str());
    const std::string v = sc->validate();
    CHS_CHECK_MSG(v.empty(), ("corpus seed '" + name + "': " + v).c_str());
    seed_scenarios.push_back(std::move(*sc));
  };

  if (!opt.resume_path.empty()) {
    auto s = read_fuzz_checkpoint(opt.resume_path, opt.seed, st);
    CHS_CHECK_MSG(s.ok, s.error.c_str());
    // A checkpoint whose corpus state disagrees with the on-disk corpus
    // directory is rejected loudly before anything runs.
    s = check_corpus_binding(st, has_dir ? opt.corpus_dir : std::string());
    CHS_CHECK_MSG(s.ok, s.error.c_str());
    CHS_CHECK_MSG(st.next_case <= opt.budget,
                  "fuzz checkpoint already covers the requested budget");
    for (const std::string& f : seed_files) load_seed(f);
  } else if (has_dir) {
    std::error_code ec;
    fs::create_directories(opt.corpus_dir, ec);
    seed_files = list_corpus(opt.corpus_dir);
    for (const std::string& f : seed_files) {
      load_seed(f);
      std::uint64_t h = 0;
      auto s = hash_file(opt.corpus_dir + "/" + f, h);
      CHS_CHECK_MSG(s.ok, s.error.c_str());
      corpus_files.push_back(f);
      corpus_hashes.push_back(h);
    }
  }

  rep.seed = opt.seed;
  rep.cases = opt.budget;
  std::set<Feature> seen(rep.features_.begin(), rep.features_.end());
  util::Rng root(opt.seed ^ kFuzzStreamSalt);
  for (std::uint64_t i = st.next_case; i < opt.budget; ++i) {
    // Each case draws from its own split stream: extending the budget
    // replays the identical case prefix. Cases execute sequentially at any
    // --jobs (parallelism lives inside the campaign), so corpus evolution
    // is part of the same deterministic sequence.
    util::Rng rng = root.split(i);
    Scenario sc;
    std::string origin = "gen";
    if (!opt.guided) {
      sc = generate_scenario(i, rng);
    } else if (i < seed_scenarios.size()) {
      sc = seed_scenarios[i];
      origin = "seed:" + seed_files[i];
    } else if (!rep.corpus.empty() && rng.next_below(4) != 0) {
      const std::size_t bi = pick_corpus_entry(rep.corpus);
      CorpusEntry& base = rep.corpus[bi];
      ++base.picked;
      const std::uint64_t op = rng.next_below(3);
      if (op == 0) {
        sc = mutate_perturb(base.scenario, i, rng);
        origin = "perturb<" + std::to_string(base.case_index);
      } else if (op == 1) {
        const std::size_t oi = rng.next_below(rep.corpus.size());
        sc = mutate_splice(base.scenario, rep.corpus[oi].scenario, i, rng);
        origin = "splice<" + std::to_string(base.case_index) + "+" +
                 std::to_string(rep.corpus[oi].case_index);
      } else {
        sc = mutate_suffix(base.scenario, i, rng);
        origin = "suffix<" + std::to_string(base.case_index);
      }
      if (!sc.validate().empty()) {
        // A structurally impossible mutant costs nothing: fall back to a
        // fresh grammar draw from the same stream, still deterministic.
        sc = generate_scenario(i, rng);
        origin = "gen";
      }
    } else {
      sc = generate_scenario(i, rng);
    }
    // Probe-stride schedule (guided only): the coverage search also varies
    // the oracle's evaluation stride, exercising the stride-defer and
    // detach-flush check classes a fixed-config run never reaches. Drawn
    // *after* every scenario draw, so a guided generated case i is the
    // same scenario as blind case i — the modes compare on equal footing.
    // A user-pinned stride (opt.oracle.stride != 1) wins over the schedule.
    std::uint64_t stride = opt.oracle.stride;
    if (opt.guided && stride == 1) {
      static const std::uint64_t kStrides[] = {1, 2, 4};
      stride = kStrides[rng.next_below(3)];
    }

    const auto jobs = campaign::expand_jobs(sc);
    std::vector<JobCoverage> slots(jobs.size());
    campaign::RunOptions ro;
    ro.jobs = opt.jobs;
    ro.engine_workers = opt.engine_workers;
    OracleConfig ocfg = opt.oracle;
    ocfg.stride = stride;
    ro.probe = [&slots, ocfg](const campaign::JobSpec& js) {
      return std::make_unique<CoverageProbe>(ocfg, &slots[js.index]);
    };
    ro.flight_sink = [&slots](const JobResult& r,
                              const obs::FlightRecorder& fl) {
      flight_features(fl, slots[r.spec.index].flight);
    };
    const campaign::CampaignReport report = campaign::run_campaign(sc, ro);

    rep.jobs += report.jobs;
    std::string outcome = "ok";
    for (const JobResult& r : report.results) {
      rep.events += r.events.size();
      rep.oracle_rounds_checked += r.oracle_rounds_checked;
    }
    // Coverage merge in job-index order — deterministic at any --jobs.
    std::uint64_t fresh = 0;
    for (std::size_t j = 0; j < report.results.size(); ++j) {
      rep.oracle_paths |= slots[j].oracle_paths;
      for (Feature f : job_features(report.results[j], slots[j])) {
        if (seen.insert(f).second) ++fresh;
      }
    }
    rep.features_.assign(seen.begin(), seen.end());
    rep.coverage_classes = rep.features_.size();
    rep.invariant_classes = static_cast<std::uint64_t>(std::distance(
        seen.lower_bound(0x0100u), seen.lower_bound(0x0140u)));
    if (opt.guided && fresh > 0) {
      CorpusEntry ce;
      ce.scenario = sc;
      ce.case_index = i;
      ce.new_features = fresh;
      if (i < seed_scenarios.size()) {
        ce.file = seed_files[i];  // already on disk, already hashed
      } else if (has_dir) {
        ce.file = sc.name + ".scn";
        while (std::binary_search(corpus_files.begin(), corpus_files.end(),
                                  ce.file)) {
          ce.file = "x" + ce.file;  // dodge a pre-seeded name, deterministically
        }
        const std::string text = sc.to_text();
        const std::vector<std::uint8_t> bytes(text.begin(), text.end());
        auto s = persist::write_file(opt.corpus_dir + "/" + ce.file, bytes);
        CHS_CHECK_MSG(s.ok, s.error.c_str());
        const auto pos = std::lower_bound(corpus_files.begin(),
                                          corpus_files.end(), ce.file);
        const auto off = pos - corpus_files.begin();
        corpus_files.insert(pos, ce.file);
        corpus_hashes.insert(corpus_hashes.begin() + off,
                             persist::content_hash(bytes));
      }
      rep.corpus.push_back(std::move(ce));
    }

    for (const JobResult& r : report.results) {
      FailureSignature sig;
      if (!job_failed(r, &sig)) continue;
      FuzzFailure f;
      f.case_index = i;
      f.scenario = sc;
      f.spec = r.spec;
      f.signature = sig;
      f.detail = describe_failure(r, sig);
      outcome = std::string("FAIL ") + failure_kind_name(sig.kind);
      if (opt.minimize) {
        MinimizeOptions mopt;
        mopt.oracle = opt.oracle;
        mopt.engine_workers = opt.engine_workers;
        mopt.max_probes = opt.max_probes;
        f.minimized = minimize(sc, r.spec, sig, mopt);
      }
      rep.failures.push_back(std::move(f));
      break;  // one failing job identifies the case; minimize just that one
    }
    rep.case_lines_.push_back(
        "case " + std::to_string(i) + ": " + sc.name + " [" + origin + "]" +
        (stride > 1 ? " stride=" + std::to_string(stride) : std::string()) +
        " guests=" + std::to_string(sc.n_guests) + " hosts=" +
        std::to_string(sc.host_counts[0]) + " family=" +
        graph::family_name(sc.families[0]) + " target=" + sc.target +
        " seeds=" + std::to_string(sc.seed_lo) + ".." +
        std::to_string(sc.seed_hi) + " delay=" + std::to_string(sc.delay) +
        " start=" + (sc.start == StartMode::kCold ? "cold" : "converged") +
        " events=" + std::to_string(sc.events.size()) + " loss=" +
        std::to_string(sc.losses.size()) + " partition=" +
        std::to_string(sc.partitions.size()) + " -> " + outcome + " cov+" +
        std::to_string(fresh) + " corpus=" + std::to_string(rep.corpus.size()));
    if (!opt.checkpoint_path.empty()) {
      // Case-granular durability: the file always holds a complete prefix,
      // so an interrupted soak resumes at the next case, never mid-case.
      st.next_case = i + 1;
      const auto s = write_fuzz_checkpoint(opt.checkpoint_path, st);
      CHS_CHECK_MSG(s.ok, s.error.c_str());
    }
  }
  return std::move(rep);
}

std::string FuzzReport::to_text() const {
  std::string out;
  out += "fuzz seed=" + std::to_string(seed) + " budget=" + std::to_string(cases) + ": " +
         std::to_string(jobs) + " jobs, " + std::to_string(events) + " events, " +
         std::to_string(oracle_rounds_checked) + " oracle-checked rounds, " +
         "coverage=" + std::to_string(coverage_classes) + " (invariants=" +
         std::to_string(invariant_classes) + ", oracle-paths=" +
         std::to_string(std::popcount(oracle_paths)) + "), corpus=" +
         std::to_string(corpus.size()) + ", " +
         std::to_string(failures.size()) + " failures\n";
  for (const std::string& line : case_lines_) out += line + "\n";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    const FuzzFailure& f = failures[i];
    out += "failure " + std::to_string(i) + ": case " + std::to_string(f.case_index) +
           " job " + std::to_string(f.spec.index) + " (family=" +
           graph::family_name(f.spec.family) + " hosts=" +
           std::to_string(f.spec.n_hosts) + " seed=" + std::to_string(f.spec.seed) +
           "): " + std::string(failure_kind_name(f.signature.kind)) + ": " +
           f.detail + "\n";
    if (f.minimized) {
      out += "  minimized in " + std::to_string(f.minimized->probes) +
             " probes (" + std::to_string(f.minimized->steps.size()) +
             " accepted shrinks); repro:\n";
      std::string scn = f.minimized->scenario.to_text();
      std::size_t pos = 0;
      while (pos < scn.size()) {
        const std::size_t nl = scn.find('\n', pos);
        out += "    " + scn.substr(pos, nl - pos) + "\n";
        pos = nl + 1;
      }
    }
  }
  return out;
}

}  // namespace chs::verify
