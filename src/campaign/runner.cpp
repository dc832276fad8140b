#include "campaign/runner.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <utility>

#include "adversary/behavior.hpp"
#include "adversary/delay_model.hpp"
#include "adversary/domains.hpp"
#include "core/churn.hpp"
#include "core/network.hpp"
#include "dht/workload.hpp"
#include "obs/flight.hpp"
#include "obs/series.hpp"
#include "persist/fields.hpp"
#include "sim/profile.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace chs::campaign {

namespace {

using graph::NodeId;

// Salts keeping the adversary's streams disjoint from each other and from
// the engine's per-node / per-sender streams (which split the *engine* seed;
// these split the raw job seed, a different generator lineage entirely).
constexpr std::uint64_t kEventStreamSalt = 0x9d7c'35ab'41e2'66f7ULL;
constexpr std::uint64_t kLossStreamSalt = 0x517c'c1b7'2722'0a95ULL;

/// Per-job adversary state: the event stream (victim picks, partition
/// sides) and the loss stream (per-delivery drop draws). Both are owned by
/// the job thread and only ever touched from the engine's serial phases,
/// so determinism is independent of every worker-count knob.
///
/// Checkpoint note (DESIGN.md D9): `sides` is pre-drawn in the constructor
/// from a fresh event stream, so it is a pure function of (seed, scenario,
/// ids) — a resumed job reconstructs the Adversary and then overwrites only
/// the two RNG states, which restores every future draw exactly.
struct Adversary {
  util::Rng ev_rng;
  util::Rng loss_rng;
  /// Sorted "side A" membership per partition window, pre-drawn in window
  /// order before the timeline starts. Scoped windows keep an empty entry
  /// here — their cut is the arithmetic domain mapping, no draw — so the
  /// event stream's draw sequence for pre-bestiary scenarios is unchanged.
  std::vector<std::vector<NodeId>> sides;
  /// Byzantine host set per scenario window, drawn after the sides (same
  /// stream, window-declaration order); and their union across windows.
  std::vector<std::vector<NodeId>> byz_sets;
  std::vector<NodeId> byz_union;
  /// Host ids in domain order (ascending), plus the scenario's domain
  /// counts, for the rack/zone block mapping (adversary/domains.hpp).
  /// Churn crashes-and-rejoins hosts but never renames them, so the
  /// mapping is stable for the whole job.
  std::vector<NodeId> hosts;
  std::uint32_t racks = 0;
  std::uint32_t zones = 0;

  Adversary(std::uint64_t seed, const Scenario& sc,
            const std::vector<NodeId>& ids)
      : ev_rng(seed ^ kEventStreamSalt),
        loss_rng(seed ^ kLossStreamSalt),
        hosts(ids),
        racks(sc.racks),
        zones(sc.zones) {
    std::sort(hosts.begin(), hosts.end());
    sides.reserve(sc.partitions.size());
    for (std::size_t w = 0; w < sc.partitions.size(); ++w) {
      if (sc.partitions[w].scope != kScopeGlobal) {
        sides.emplace_back();  // domain cut: no draw
        continue;
      }
      std::vector<NodeId> pool(ids);
      for (std::size_t i = pool.size(); i > 1; --i) {
        std::swap(pool[i - 1], pool[ev_rng.next_below(i)]);
      }
      pool.resize(pool.size() / 2);  // both sides non-empty for n >= 2
      std::sort(pool.begin(), pool.end());
      sides.push_back(std::move(pool));
    }
    byz_sets.reserve(sc.byzantine.size());
    for (const ByzantineWindow& w : sc.byzantine) {
      std::uint64_t count = static_cast<std::uint64_t>(
          w.fraction * static_cast<double>(ids.size()) + 0.5);
      count = std::min<std::uint64_t>(std::max<std::uint64_t>(count, 1),
                                      ids.size());
      byz_sets.push_back(pick_distinct(ids, count));
      byz_union.insert(byz_union.end(), byz_sets.back().begin(),
                       byz_sets.back().end());
    }
    std::sort(byz_union.begin(), byz_union.end());
    byz_union.erase(std::unique(byz_union.begin(), byz_union.end()),
                    byz_union.end());
  }

  bool in_side_a(std::size_t window, NodeId id) const {
    return std::binary_search(sides[window].begin(), sides[window].end(), id);
  }

  /// Rack of a host under the block mapping; kNoRack for ids outside the
  /// initial host set (cannot happen while churn preserves ids — kept
  /// deterministic rather than asserted).
  static constexpr std::uint32_t kNoRack = ~std::uint32_t{0};
  std::uint32_t rack_of(NodeId id) const {
    const auto it = std::lower_bound(hosts.begin(), hosts.end(), id);
    if (it == hosts.end() || *it != id) return kNoRack;
    return adversary::rack_of_index(
        static_cast<std::uint64_t>(it - hosts.begin()), hosts.size(), racks);
  }

  bool in_domain(std::uint8_t scope, std::uint32_t domain, NodeId id) const {
    const std::uint32_t r = rack_of(id);
    if (r == kNoRack) return false;
    if (scope == kScopeRack) return r == domain;
    return adversary::zone_of_rack(r, racks, zones) == domain;
  }

  /// Whether the scenario's link windows let a message from -> to through,
  /// `rel` rounds into the timeline. Partition cuts come first: a cut
  /// message consumes no loss draw, so the draw sequence of `loss_rng` is
  /// well-defined. A scoped loss window only draws for messages touching
  /// its domain, so out-of-domain traffic never perturbs the stream.
  bool link_passes(const Scenario& s, std::uint64_t rel, NodeId from,
                   NodeId to, util::Rng& loss_rng) const {
    for (std::size_t w = 0; w < s.partitions.size(); ++w) {
      const auto& win = s.partitions[w];
      if (rel < win.begin || rel >= win.end) continue;
      const bool cut = win.scope == kScopeGlobal
                           ? in_side_a(w, from) != in_side_a(w, to)
                           : in_domain(win.scope, win.domain, from) !=
                                 in_domain(win.scope, win.domain, to);
      if (cut) return false;
    }
    for (const LossWindow& win : s.losses) {
      if (rel < win.begin || rel >= win.end) continue;
      if (win.scope != kScopeGlobal &&
          !in_domain(win.scope, win.domain, from) &&
          !in_domain(win.scope, win.domain, to)) {
        continue;
      }
      if (loss_rng.next_double() < win.rate) return false;
    }
    return true;
  }

  /// `count` distinct hosts drawn from `ids` (event stream).
  std::vector<NodeId> pick_distinct(const std::vector<NodeId>& ids,
                                    std::uint64_t count) {
    std::set<NodeId> picked;
    while (picked.size() < count) {
      picked.insert(ids[ev_rng.next_below(ids.size())]);
    }
    return {picked.begin(), picked.end()};
  }
};

/// Scenario workload spec -> driver config (kept separate so src/dht stays
/// below the campaign layer in the dependency order).
dht::WorkloadConfig workload_config(const Scenario& sc) {
  dht::WorkloadConfig c;
  c.begin = sc.workload.begin;
  c.end = sc.workload.end;
  c.rate = sc.workload.rate;
  c.keys = sc.workload.keys;
  c.zipf = sc.workload.zipf;
  c.put_fraction = sc.workload.put_fraction;
  c.replicas = sc.workload.replicas;
  c.timeout = sc.workload.timeout;
  c.prefill = sc.workload.prefill;
  return c;
}

void apply_event(core::StabEngine& eng, const TimelineEvent& ev,
                 Adversary& adv) {
  const auto& ids = eng.graph().ids();
  switch (ev.kind) {
    case EventKind::kChurn: {
      // core::churn_burst redraws the victim set until the survivors stay
      // connected (edges are state; a victim can hold some host's only
      // link — e.g. an earlier victim still hanging by its single rejoin
      // edge mid-recovery) and anchors every victim to a survivor.
      core::churn_burst(eng, ev.count, adv.ev_rng);
      break;
    }
    case EventKind::kFault: {
      for (NodeId victim : adv.pick_distinct(ids, ev.count)) {
        core::wipe_host_state(eng, victim);
      }
      break;
    }
    case EventKind::kRetarget: {
      auto spec = target_by_name(ev.target);
      CHS_CHECK_MSG(spec.has_value(), "retarget to unknown target");
      core::retarget(eng, std::move(*spec));
      break;
    }
    case EventKind::kFreeze: {
      eng.protocol().set_frozen(true);
      break;
    }
    case EventKind::kThaw: {
      eng.protocol().set_frozen(false);
      // Frozen steps scheduled no wakeups; the full republish re-activates
      // every host so the network resumes from wherever the stall left it.
      eng.republish();
      break;
    }
    case EventKind::kRackOutage:
    case EventKind::kZoneOutage:
      // Domain outages are scheduled by the runner's wipe queue (they can
      // span rounds); JobRunner::step special-cases them before this switch.
      CHS_CHECK_MSG(false, "domain outage reached apply_event");
      break;
  }
}

}  // namespace

// --- JobRunner --------------------------------------------------------------

struct JobRunner::Impl {
  enum class Stage : std::uint8_t { kSetup = 0, kTimeline = 1, kFinished = 2 };

  Scenario sc;  // owned copy: the runner may outlive a minimizer candidate
  JobSpec spec;
  std::size_t engine_workers = 1;
  std::unique_ptr<core::StabEngine> eng;
  // Invariant oracle (DESIGN.md D8), armed by the constructor's `oracle`.
  // Declared after `eng` so it is destroyed — and detaches its observer —
  // first, also when the runner is abandoned mid-job.
  std::optional<verify::InvariantOracle> oracle;
  std::vector<TimelineEvent> events;  // sorted by round (stable)
  std::uint64_t t_end = 0;

  Stage stage = Stage::kSetup;
  std::uint64_t setup_rounds = 0;
  JobResult out;
  // Timeline state (live once stage == kTimeline).
  std::optional<Adversary> adv;
  std::uint64_t r0 = 0;        // engine round the timeline started at
  std::uint64_t t = 0;         // current timeline round
  std::uint64_t next_event = 0;
  std::uint64_t executed = 0;
  std::vector<std::uint64_t> pending;  // indices into out.events
  // Rolling domain-outage wipe queue (DESIGN.md D11): parallel vectors of
  // (due timeline round, rack) — a rack outage enqueues one entry, a zone
  // outage one per rack in the zone at successive rounds. Serialized, so a
  // resume mid-outage replays the remaining wipes on schedule.
  std::vector<std::uint64_t> wipe_due;
  std::vector<std::uint64_t> wipe_rack;
  // Byzantine-window bookkeeping: sorted begin/end boundary rounds (static,
  // rebuilt by the ctor) and, per scenario window, 1 + the index of its
  // ByzWindowOutcome in out.byz_windows once opened (0 = not yet; this
  // cursor is serialized — the outcome itself rides in `out`).
  std::vector<std::uint64_t> byz_bounds;
  std::vector<std::uint64_t> byz_open;
  // Timeline-phase metric baselines.
  std::uint64_t msg0 = 0, drop0 = 0, adds0 = 0, dels0 = 0, resets0 = 0;
  // Telemetry series recorder (DESIGN.md D12), armed by `series` in the
  // scenario. Deterministic state — checkpointed in the OBSR section.
  std::optional<obs::SeriesRecorder> series;
  // Open-loop serving workload (DESIGN.md D13), armed by `workload` in the
  // scenario: a second engine — the KV data plane, snapshotted from the
  // converged network at timeline start — stepped in lockstep with the
  // control plane. Dynamic state rides the WKLD/KVDP checkpoint sections.
  std::optional<dht::WorkloadDriver> wl;
  // Flight recorder sink + per-host (phase, merge-stage) transition cache
  // for the chained round observer. Diagnostic only, never serialized.
  obs::FlightRecorder* flight = nullptr;
  std::vector<std::pair<stabilizer::Phase, stabilizer::MergeStage>> fl_cache;

  bool oracle_failed() const { return oracle && oracle->hard_failed(); }

  std::uint64_t oracle_contained() const {
    return oracle ? oracle->contained_violations() : 0;
  }

  /// The series reading after timeline round `tr`: engine counters, the
  /// oracle's violation classification, the Byzantine windows open during
  /// `tr`, and the workload's columns.
  obs::SeriesSample series_reading(std::uint64_t tr) const {
    obs::SeriesSample r = obs::engine_reading(eng->metrics());
    if (oracle) {
      r.contained = oracle->contained_violations();
      r.violations = oracle->violation() ? 1 : 0;
    }
    for (const ByzantineWindow& w : sc.byzantine) {
      if (tr >= w.begin && tr < w.end) ++r.windows_open;
    }
    if (wl) wl->fill_reading(r);
    return r;
  }

  /// Seed the flight observer's transition cache from current engine state
  /// (after construction or restore), so the first recorded transitions are
  /// real ones, not restore artifacts.
  void sync_flight_cache() {
    const auto& g = eng->graph();
    fl_cache.assign(g.size(), {});
    for (NodeId id : g.ids()) {
      const stabilizer::HostState& st = eng->state(id);
      fl_cache[g.index_of(id)] = {st.phase, st.merge.stage};
    }
  }

  /// Chained round observer: narrate per-host protocol phase / merge-stage
  /// transitions among the round's dirty hosts. Runs in the engine's serial
  /// publish phase, so the event sequence is deterministic at any worker
  /// count.
  void observe_flight(std::uint64_t round,
                      std::span<const graph::NodeIndex> dirty) {
    if (!flight) return;
    const auto& g = eng->graph();
    if (fl_cache.size() < g.size()) fl_cache.resize(g.size());
    for (graph::NodeIndex i : dirty) {
      if (i >= fl_cache.size()) continue;
      const NodeId id = g.id_of(i);
      const stabilizer::HostState& st = eng->state(id);
      auto& c = fl_cache[i];
      if (st.phase != c.first) {
        flight->record(round, obs::FlightKind::kPhase, id, 0,
                       std::string(stabilizer::phase_name(c.first)) + "->" +
                           stabilizer::phase_name(st.phase));
        c.first = st.phase;
      }
      if (st.merge.stage != c.second) {
        flight->record(
            round, obs::FlightKind::kMergeStage, id, 0,
            std::string(stabilizer::merge_stage_name(c.second)) + "->" +
                stabilizer::merge_stage_name(st.merge.stage));
        c.second = st.merge.stage;
      }
    }
  }

  /// Install the behavior policy matching the windows open at timeline
  /// round `at`. Live boundary crossings republish each host whose behavior
  /// changed, so its lie appears (or its honest snapshot reappears) in
  /// neighbors' views that same round; restore passes live=false — the
  /// restored snapshots already contain whatever was published — and
  /// evaluates at t-1, the last round a boundary could have been processed
  /// for (the cursor advances past the round a checkpoint covers).
  void refresh_behaviors(bool live, std::uint64_t at) {
    std::vector<std::pair<NodeId, adversary::BehaviorKind>> want;
    for (std::size_t w = 0; w < sc.byzantine.size(); ++w) {
      const ByzantineWindow& win = sc.byzantine[w];
      if (at < win.begin || at >= win.end) continue;
      for (NodeId id : adv->byz_sets[w]) {
        bool found = false;
        for (auto& p : want) {
          if (p.first == id) {  // overlapping windows: later declaration wins
            p.second = win.kind;
            found = true;
            break;
          }
        }
        if (!found) want.emplace_back(id, win.kind);
      }
    }
    std::sort(want.begin(), want.end());
    const auto& cur = eng->protocol().behaviors();
    if (want == cur) return;
    std::vector<NodeId> changed;
    std::size_t i = 0, j = 0;
    while (i < cur.size() || j < want.size()) {
      if (j == want.size() || (i < cur.size() && cur[i].first < want[j].first)) {
        changed.push_back(cur[i++].first);
      } else if (i == cur.size() || want[j].first < cur[i].first) {
        changed.push_back(want[j++].first);
      } else {
        if (cur[i].second != want[j].second) changed.push_back(cur[i].first);
        ++i, ++j;
      }
    }
    eng->protocol().set_behaviors(std::move(want));
    if (live) {
      for (NodeId id : changed) {
        if (eng->graph().contains(id)) eng->republish(id);
      }
    }
  }

  /// Open/close Byzantine-window outcomes at round `t` and re-install the
  /// behavior policy. An opening outcome stores the oracle's containment
  /// counter as a baseline in `contained`; the close (or finish_timeline,
  /// for windows the job ends inside) rewrites it as the delta.
  void process_byz_boundaries() {
    for (std::size_t w = 0; w < sc.byzantine.size(); ++w) {
      const ByzantineWindow& win = sc.byzantine[w];
      if (win.begin == t && byz_open[w] == 0) {
        ByzWindowOutcome o;
        o.begin = win.begin;
        o.end = win.end;
        o.kind = win.kind;
        o.hosts = adv->byz_sets[w];
        o.contained = oracle_contained();
        byz_open[w] = out.byz_windows.size() + 1;
        out.byz_windows.push_back(std::move(o));
      }
      if (win.begin == t && byz_open[w] != 0 && flight) {
        flight->record(eng->round(), obs::FlightKind::kByzOpen, w, win.end,
                       adversary::behavior_name(win.kind));
      }
      if (win.end == t && byz_open[w] != 0) {
        ByzWindowOutcome& o = out.byz_windows[byz_open[w] - 1];
        o.contained = oracle_contained() - o.contained;
        if (flight) {
          flight->record(eng->round(), obs::FlightKind::kByzClose, w, 0,
                         adversary::behavior_name(win.kind));
        }
      }
    }
    refresh_behaviors(/*live=*/true, t);
  }

  /// Enqueue a domain outage's wipes (rack: one entry now; zone: rolling,
  /// one rack per round in block order).
  void schedule_outage(const TimelineEvent& ev) {
    if (ev.kind == EventKind::kRackOutage) {
      wipe_due.push_back(t);
      wipe_rack.push_back(ev.count);
      return;
    }
    const std::uint64_t lo = adversary::part_begin(ev.count, sc.racks, sc.zones);
    const std::uint64_t hi = adversary::part_end(ev.count, sc.racks, sc.zones);
    for (std::uint64_t r = lo; r < hi; ++r) {
      wipe_due.push_back(t + (r - lo));
      wipe_rack.push_back(r);
    }
  }

  /// Power-cycle every rack due this round: wipe its hosts' state in
  /// ascending id order (edges survive, like kFault — the engine's targeted
  /// republish models a restarted process on a live box).
  void process_due_wipes() {
    if (wipe_due.empty()) return;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < wipe_due.size(); ++i) {
      if (wipe_due[i] != t) {
        wipe_due[kept] = wipe_due[i];
        wipe_rack[kept] = wipe_rack[i];
        ++kept;
        continue;
      }
      const std::uint64_t n = adv->hosts.size();
      const std::uint64_t lo = adversary::part_begin(wipe_rack[i], n, sc.racks);
      const std::uint64_t hi = adversary::part_end(wipe_rack[i], n, sc.racks);
      for (std::uint64_t j = lo; j < hi; ++j) {
        const NodeId id = adv->hosts[j];
        if (eng->graph().contains(id)) {
          core::wipe_host_state(*eng, id);
          if (flight) {
            flight->record(eng->round(), obs::FlightKind::kWipe, id,
                           wipe_rack[i]);
          }
        }
      }
    }
    wipe_due.resize(kept);
    wipe_rack.resize(kept);
  }

  void install_filter() {
    if (sc.losses.empty() && sc.partitions.empty() && sc.byzantine.empty()) {
      return;
    }
    Adversary* a = &*adv;
    const Scenario* s = &sc;
    core::StabEngine* e = eng.get();
    const std::uint64_t start = r0;
    eng->set_delivery_filter([a, s, e, start](NodeId from, NodeId to,
                                              std::uint64_t round) {
      // Behavior-policy drops first: they consume no RNG, so their presence
      // (or a window's opening) cannot shift the loss stream's draw
      // sequence for messages the dropper never touches.
      const adversary::BehaviorKind b = e->protocol().behavior_of(from);
      if (b == adversary::BehaviorKind::kDropper) return false;
      if (b == adversary::BehaviorKind::kSelective &&
          adversary::selective_drops(from, to)) {
        return false;
      }
      return a->link_passes(*s, round - start, from, to, a->loss_rng);
    });
  }

  /// Mirror the scenario's loss/partition windows onto the KV data plane.
  /// Behavior-policy drops stay control-plane-only (they model protocol
  /// lies, not link failures); cuts reuse the adversary's pre-drawn sides
  /// read-only, and loss draws come from the driver's own stream so client
  /// traffic never perturbs the control plane's draw sequence. KV rounds
  /// count timeline rounds directly (the data plane is born at timeline
  /// round 0), so the windows need no r0 rebase.
  void install_kv_filter() {
    if (!wl || (sc.losses.empty() && sc.partitions.empty())) return;
    Adversary* a = &*adv;
    const Scenario* s = &sc;
    dht::WorkloadDriver* d = &*wl;
    wl->engine().set_delivery_filter(
        [a, s, d](NodeId from, NodeId to, std::uint64_t round) {
          return a->link_passes(*s, round, from, to, d->loss_rng());
        });
  }

  void begin_timeline() {
    // Timeline-phase baselines. Resets are saturated at finish because a
    // state wipe zeroes the victim's reset counter.
    msg0 = eng->metrics().messages();
    drop0 = eng->metrics().messages_dropped();
    adds0 = eng->metrics().edge_adds();
    dels0 = eng->metrics().edge_dels();
    resets0 = core::total_resets(*eng);
    adv.emplace(spec.seed, sc, eng->graph().ids());
    r0 = eng->round();
    install_filter();
    if (!sc.byzantine.empty()) {
      byz_open.assign(sc.byzantine.size(), 0);
      // Blame attribution (DESIGN.md D11): the oracle learns the union of
      // all windows' Byzantine sets up front — a violation seeded during a
      // window can surface after it closes, and must still be attributed.
      if (oracle) oracle->set_adversarial(adv->byz_union);
    }
    if (sc.workload_armed()) {
      // The data plane snapshots the *converged* network (validate requires
      // `start converged` for workload scenarios, and setup only hands over
      // here once is_converged holds).
      wl.emplace(*eng, workload_config(sc), spec.seed, sc.delay);
      if (engine_workers > 1) wl->engine().set_worker_threads(engine_workers);
      install_kv_filter();
    }
    if (sc.series_stride > 0) {
      // Prime the delta baselines at the timeline start so the series
      // covers timeline rounds only (setup cost is not the run's shape).
      series.emplace(sc.series_stride, sc.series_cap);
      series->prime(series_reading(t));
    }
    if (flight) {
      flight->record(eng->round(), obs::FlightKind::kJobStage, 0, 0,
                     "timeline-begin");
    }
    stage = Stage::kTimeline;
  }

  void finish_timeline() {
    eng->set_delivery_filter({});  // adversary state dies with this runner
    eng->protocol().set_behaviors({});
    out.converged = core::is_converged(*eng);
    out.rounds = executed;
    out.messages = eng->metrics().messages() - msg0;
    out.messages_dropped = eng->metrics().messages_dropped() - drop0;
    out.edge_adds = eng->metrics().edge_adds() - adds0;
    out.edge_dels = eng->metrics().edge_dels() - dels0;
    const std::uint64_t resets1 = core::total_resets(*eng);
    out.resets = resets1 > resets0 ? resets1 - resets0 : 0;
    out.peak_degree = eng->metrics().peak_max_degree();
    out.degree_expansion = eng->metrics().degree_expansion(eng->graph());
    out.degree_trace = eng->metrics().max_degree_trace();
    out.adversary_armed = !sc.byzantine.empty();
    if (out.adversary_armed && adv) {
      // Windows the job ended inside never saw their closing boundary:
      // their `contained` still holds the opening baseline — fix it up.
      for (std::size_t w = 0; w < sc.byzantine.size(); ++w) {
        if (byz_open[w] != 0 && sc.byzantine[w].end > t) {
          ByzWindowOutcome& o = out.byz_windows[byz_open[w] - 1];
          o.contained = oracle_contained() - o.contained;
        }
      }
      // Acceptance criterion for the correct-node subset: every host that
      // is neither adversarial nor a direct graph neighbor of one must have
      // reached Done. The one-hop exclusion matches the oracle's blame
      // radius — a liar's neighbor may legitimately be stuck mid-merge.
      out.correct_converged = true;
      for (NodeId id : eng->graph().ids()) {
        if (std::binary_search(adv->byz_union.begin(), adv->byz_union.end(),
                               id)) {
          continue;
        }
        bool near_adversary = false;
        for (NodeId nb : eng->graph().neighbors(id)) {
          if (std::binary_search(adv->byz_union.begin(), adv->byz_union.end(),
                                 nb)) {
            near_adversary = true;
            break;
          }
        }
        if (near_adversary) continue;
        if (eng->state(id).phase != stabilizer::Phase::kDone) {
          out.correct_converged = false;
          break;
        }
      }
    }
    if (series) {
      // Close the final partial window; the effective stride reflects any
      // downsampling the ring forced along the way.
      series->flush(t > 0 ? t - 1 : 0);
      out.series_stride = series->effective_stride();
      out.series = series->samples();
    }
    if (wl) {
      const dht::WorkloadTotals& tot = wl->totals();
      out.wl_issued = tot.issued;
      out.wl_completed = tot.completed;
      out.wl_timeouts = tot.timeouts;
      out.wl_retries = tot.retries;
      out.wl_hits = tot.hits;
      out.wl_drops = wl->drops();
      out.wl_peak_inflight = tot.peak_inflight;
      out.wl_p50 = obs::lat_quantile(wl->lat_hist(), 5000);
      out.wl_p99 = obs::lat_quantile(wl->lat_hist(), 9900);
    }
    if (flight) {
      flight->record(eng->round(), obs::FlightKind::kJobStage, 0, 0,
                     out.converged ? "finished converged"
                                   : "finished unconverged");
    }
    stage = Stage::kFinished;
  }

  // Checkpoint plumbing shared by the full and delta paths (defined below,
  // next to JobRunner::checkpoint/restore).
  template <typename A>
  void persist_loop_state(A& a);
  void save(persist::Writer& w, bool delta);
  persist::Status load(persist::Reader& r, bool delta);
};

JobRunner::JobRunner(const Scenario& sc, const JobSpec& spec,
                     std::size_t engine_workers,
                     std::optional<verify::OracleConfig> oracle)
    : impl_(std::make_unique<Impl>()) {
  CHS_CHECK_MSG(sc.validate().empty(), "scenario failed validation");
  Impl& im = *impl_;
  im.sc = sc;
  im.spec = spec;
  im.out.spec = spec;
  // Armed even for jobs that die in setup: the report's `series` block is a
  // function of the scenario, with whatever samples the job got to record.
  im.out.series_armed = sc.series_stride > 0;
  im.out.series_stride = sc.series_stride;
  im.out.workload_armed = sc.workload_armed();
  im.engine_workers = engine_workers;

  // Initial configuration: the repo's one cold-start recipe (seed -> ids ->
  // family); the E1/E3/E6 benches run their sweep points through it too.
  util::Rng rng(spec.seed * 0x9e3779b97f4a7c15ULL + 13);
  auto ids = graph::sample_ids(spec.n_hosts, sc.n_guests, rng);
  graph::Graph g = graph::make_family(spec.family, ids, rng);

  core::Params params;
  params.n_guests = sc.n_guests;
  params.target = *target_by_name(sc.target);
  params.delay_slack = sc.delay;
  im.eng = core::make_engine(std::move(g), params, spec.seed);
  im.eng->set_max_message_delay(sc.delay);
  // Non-default WAN delay models ride the same per-sender delay streams the
  // uniform draw uses, so the "uniform" model (no sampler installed) keeps
  // every pre-bestiary trace byte-identical.
  adversary::DelayModel dm = adversary::DelayModel::kUniform;
  CHS_CHECK(adversary::delay_model_by_name(sc.delay_model, dm));
  if (dm != adversary::DelayModel::kUniform) {
    im.eng->set_delay_sampler(
        [dm](NodeId from, NodeId to, std::uint32_t max_delay, util::Rng& r) {
          return adversary::sample_delay(dm, from, to, max_delay, r);
        });
  }
  for (const ByzantineWindow& w : sc.byzantine) {
    im.byz_bounds.push_back(w.begin);
    im.byz_bounds.push_back(w.end);
  }
  std::sort(im.byz_bounds.begin(), im.byz_bounds.end());
  im.byz_bounds.erase(
      std::unique(im.byz_bounds.begin(), im.byz_bounds.end()),
      im.byz_bounds.end());
  if (engine_workers > 1) im.eng->set_worker_threads(engine_workers);
  if (oracle) im.oracle.emplace(*im.eng, *oracle);

  // Apply in round order whatever order the events were declared in
  // (parse_scenario pre-sorts; builder chains need not be monotone).
  im.events = sc.events;
  sort_events_by_round(im.events);
  im.t_end = sc.timeline_end();

  if (sc.start == StartMode::kConverged) {
    im.stage = Impl::Stage::kSetup;
  } else {
    im.out.setup_converged = true;
    im.begin_timeline();
  }
}

JobRunner::~JobRunner() = default;

bool JobRunner::finished() const {
  return impl_->stage == Impl::Stage::kFinished;
}

core::StabEngine& JobRunner::engine() { return *impl_->eng; }

std::uint64_t JobRunner::engine_round() const { return impl_->eng->round(); }

bool JobRunner::in_timeline() const {
  return impl_->stage != Impl::Stage::kSetup;
}

std::uint64_t JobRunner::timeline_round() const { return impl_->t; }

bool JobRunner::step() {
  Impl& im = *impl_;
  switch (im.stage) {
    case Impl::Stage::kSetup: {
      // The abort hook semantics of run_to_convergence: invariants must
      // hold during stabilization too, so a hard-failing oracle ends setup.
      if (im.oracle_failed() || core::is_converged(*im.eng) ||
          im.setup_rounds >= im.sc.max_rounds) {
        im.out.setup_converged = core::is_converged(*im.eng);
        im.out.setup_rounds = im.setup_rounds;
        if (!im.out.setup_converged) {  // nothing to attack; report failure
          im.stage = Impl::Stage::kFinished;
          return false;
        }
        im.begin_timeline();
        return true;
      }
      im.eng->step_round();
      ++im.setup_rounds;
      return true;
    }
    case Impl::Stage::kTimeline: {
      // Byzantine-window boundaries first: a window opening at round t has
      // its lies in the air before t's events and deliveries.
      if (!im.sc.byzantine.empty() &&
          std::binary_search(im.byz_bounds.begin(), im.byz_bounds.end(),
                             im.t)) {
        im.process_byz_boundaries();
      }
      while (im.next_event < im.events.size() &&
             im.events[im.next_event].round == im.t) {
        const TimelineEvent& ev = im.events[im.next_event];
        if (ev.kind == EventKind::kRackOutage ||
            ev.kind == EventKind::kZoneOutage) {
          im.schedule_outage(ev);  // wipes run below, possibly over rounds
        } else {
          apply_event(*im.eng, ev, *im.adv);
        }
        if (im.flight) {
          im.flight->record(im.eng->round(), obs::FlightKind::kTimelineEvent,
                            ev.count, im.t, event_kind_name(ev.kind));
        }
        im.out.events.push_back(EventOutcome{ev.kind, im.t, 0, false});
        im.pending.push_back(im.out.events.size() - 1);
        ++im.next_event;
      }
      im.process_due_wipes();
      // The O(hosts + edges) convergence scan runs only when its answer can
      // matter: to end the job (everything applied, every window closed,
      // nothing awaiting recovery) or to timestamp recoveries below. Gap
      // rounds spent waiting for a future event or window skip it entirely.
      if (im.next_event == im.events.size() && im.t >= im.t_end &&
          im.pending.empty() && (!im.wl || im.wl->idle(im.t)) &&
          core::is_converged(*im.eng)) {
        im.finish_timeline();
        return false;
      }
      if (im.t >= im.sc.max_rounds) {  // budget exhausted
        im.finish_timeline();
        return false;
      }
      if (im.oracle_failed()) {
        im.finish_timeline();
        return false;
      }
      im.eng->step_round();
      ++im.executed;
      // The data plane runs after the control plane's round so serving
      // eligibility reflects the phases this round produced; its arrivals,
      // expiries, and completions land in the same series window.
      if (im.wl) im.wl->on_timeline_round(im.t, *im.eng);
      // Sample AFTER the round executes, indexed by the round it covers;
      // a checkpoint taken between rounds lands after this call, so the
      // recorder state it saves is exactly "rounds 0..t recorded".
      if (im.series) im.series->on_round(im.t, im.series_reading(im.t));
      if (!im.pending.empty() && core::is_converged(*im.eng)) {
        for (std::uint64_t p : im.pending) {
          im.out.events[p].recovered = true;
          im.out.events[p].recovery_rounds =
              im.t + 1 - im.out.events[p].round;
        }
        im.pending.clear();
      }
      ++im.t;
      return true;
    }
    case Impl::Stage::kFinished:
      return false;
  }
  return false;
}

void JobRunner::run(const RoundHook& hook) {
  while (step()) {
    if (hook && !hook(*this)) return;
  }
}

JobResult JobRunner::result() {
  Impl& im = *impl_;
  CHS_CHECK_MSG(im.stage == Impl::Stage::kFinished,
                "JobRunner::result() before the job finished");
  if (im.oracle) {
    // Detach before reading the verdict: the detach flushes the final
    // partial stride window, which can itself surface the violation.
    im.oracle->detach();
    im.out.oracle_armed = true;
    im.out.oracle_rounds_checked = im.oracle->rounds_checked();
    im.out.oracle_paths = im.oracle->paths();
    im.out.contained_violations = im.oracle->contained_violations();
    if (const auto& v = im.oracle->violation()) {
      im.out.oracle_violation = v->what;
      im.out.oracle_round = v->round;
    }
  }
  return im.out;
}

void JobRunner::set_flight(obs::FlightRecorder* flight) {
  Impl& im = *impl_;
  im.flight = flight;
  if (im.oracle) im.oracle->set_flight(flight);
  if (!flight) return;
  im.sync_flight_cache();
  // Chain after the oracle's observer (installed by the constructor); its
  // detach wipes the whole chain, which is fine — that only happens when
  // the job is over or the runner is destroyed.
  Impl* pim = &im;
  im.eng->chain_round_observer(
      [pim](std::uint64_t round, std::span<const graph::NodeIndex> dirty,
            std::span<const sim::EdgeDelta>) {
        pim->observe_flight(round, dirty);
      });
}

void JobRunner::set_profiler(sim::RoundProfile* p) {
  impl_->eng->set_profiler(p);
}

// The full and delta snapshots share everything but the engine payload:
// JOBR/OBSR/WKLD/KVDP carry the loop state (small, rewritten verbatim in
// both), ENGB the engine blob — self-contained (kEngine) or extending the
// engine's checkpoint chain (kEngineDelta, DESIGN.md D10) — and ORCL the
// oracle state. One traversal writes and reads the loop state; on the read
// side each consistency check latches a Reader failure, which the caller
// returns as the Status.
template <typename A>
void JobRunner::Impl::persist_loop_state(A& a) {
  constexpr bool kReading = A::kIsReader;
  persist::section(a, persist::tag4("JOBR"), [&] {
    JobSpec in = spec;
    a(in);
    if (!persist::require(a,
                          in.index == spec.index && in.family == spec.family &&
                              in.n_hosts == spec.n_hosts && in.seed == spec.seed,
                          "checkpoint is for a different job")) {
      return;
    }
    a(stage);
    a(setup_rounds);
    a(out);
    a(r0);
    a(t);
    a(next_event);
    a(executed);
    a(pending);
    a(msg0);
    a(drop0);
    a(adds0);
    a(dels0);
    a(resets0);
    bool has_adv = !kReading && adv.has_value();
    a(has_adv);
    if (has_adv) {
      // `sides` and `byz_sets` are a pure function of seed, scenario, and
      // the recipe's id set; only the stream states are dynamic state.
      if constexpr (kReading) adv.emplace(spec.seed, sc, eng->graph().ids());
      a(adv->ev_rng);
      a(adv->loss_rng);
    }
    a(wipe_due);
    a(wipe_rack);
    a(byz_open);
    bool has_oracle = oracle.has_value();
    a(has_oracle);
    persist::require(a, has_oracle == oracle.has_value(),
                     "oracle configuration differs from the checkpointed job");
    persist::require(a, next_event <= events.size(),
                     "event cursor out of range");
    persist::require(a,
                     std::all_of(pending.begin(), pending.end(),
                                 [&](std::uint64_t p) {
                                   return p < out.events.size();
                                 }),
                     "pending event index out of range");
    persist::require(a, wipe_due.size() == wipe_rack.size(),
                     "wipe queue vectors out of sync");
    persist::require(a, byz_open.size() <= sc.byzantine.size(),
                     "byzantine window cursor out of range");
    persist::require(a,
                     std::all_of(byz_open.begin(), byz_open.end(),
                                 [&](std::uint64_t o) {
                                   return o <= out.byz_windows.size();
                                 }),
                     "byzantine outcome index out of range");
    // A finished-stage snapshot needs neither: the filter is uninstalled
    // at finish.
    if (stage == Stage::kTimeline) {
      persist::require(a, has_adv, "timeline snapshot without adversary");
      persist::require(a, byz_open.size() == sc.byzantine.size(),
                       "byzantine window cursors missing");
    }
  });

  // Telemetry series recorder (DESIGN.md D12): full dynamic state, so a
  // resumed job's series is bit-for-bit the uninterrupted run's. The flight
  // recorder and profiler are deliberately absent — diagnostic wall-side
  // state, rebuilt fresh by the resuming process.
  persist::section(a, persist::tag4("OBSR"), [&] {
    bool has_series = series.has_value();
    a(has_series);
    if (!persist::require(
            a, has_series == (sc.series_stride > 0 && stage != Stage::kSetup),
            "series recorder arming differs from the scenario") ||
        !has_series) {
      return;
    }
    if constexpr (kReading) series.emplace();
    a(*series);
    persist::require(a, series->configured_stride() == sc.series_stride,
                     "series stride mismatch");
  });

  // Serving workload (DESIGN.md D13): WKLD carries the generator's dynamic
  // state (RNG streams, op counter, in-flight table, cumulative counters);
  // KVDP the data-plane engine as a self-contained blob. The KV blob is
  // always full — even on the delta path — which fattens deltas while a
  // workload runs and so naturally trips the caller's rebase heuristic.
  persist::section(a, persist::tag4("WKLD"), [&] {
    bool has_wl = wl.has_value();
    a(has_wl);
    if (!persist::require(
            a, has_wl == (sc.workload_armed() && stage != Stage::kSetup),
            "workload arming differs from the scenario") ||
        !has_wl) {
      return;
    }
    if (!wl) {
      // Restore ctor: a bare engine over the same fixed id set; all dynamic
      // state arrives from the archive and the KVDP blob below.
      wl.emplace(eng->graph().ids(), sc.n_guests, workload_config(sc),
                 sc.delay);
      if (engine_workers > 1) wl->engine().set_worker_threads(engine_workers);
    }
    a(*wl);
  });
  persist::section(a, persist::tag4("KVDP"), [&] {
    if (!wl) return;
    if constexpr (kReading) {
      std::vector<std::uint8_t> blob;
      a(blob);
      if (!a.ok()) return;
      if (auto s = wl->restore_engine(blob); !s.ok) {
        a.fail(s.error);
        return;
      }
      wl->finish_restore();
    } else {
      a(wl->engine().checkpoint_blob());
    }
  });
}

void JobRunner::Impl::save(persist::Writer& w, bool delta) {
  persist_loop_state(w);
  w.begin_section(persist::tag4("ENGB"));
  // Either blob becomes the engine's chain head, so the next delta extends
  // exactly these bytes.
  w(delta ? eng->checkpoint_delta_blob() : eng->checkpoint_blob());
  w.end_section();
  persist::section(w, persist::tag4("ORCL"), [&] {
    if (oracle) w(*oracle);
  });
}

persist::Status JobRunner::Impl::load(persist::Reader& r, bool delta) {
  if (auto s = r.validate_sections(); !s.ok) return s;
  persist_loop_state(r);
  std::vector<std::uint8_t> blob;
  persist::section(r, persist::tag4("ENGB"), [&] { r(blob); });
  if (!r.ok()) return r.status();
  // A delta verifies its parent content hash against the engine's chain
  // head; one applied out of order (or to the wrong base) fails here
  // without mutating the engine. The loop state read above is small and
  // rewritten whole by the next snapshot, so a failed job restore is simply
  // retried from scratch by the caller.
  if (auto s = delta ? eng->restore_delta_blob(blob) : eng->restore_blob(blob);
      !s.ok) {
    return s;
  }
  persist::section(r, persist::tag4("ORCL"), [&] {
    if (oracle) r(*oracle);
  });
  if (!r.ok()) return r.status();

  if (stage == Stage::kTimeline) {
    // The adversary's streams were restored above; reinstall the runtime
    // configuration hanging off it so every future draw continues exactly
    // where the snapshot left off.
    install_filter();
    install_kv_filter();  // no-op unless the workload (and a window) is live
    // Reinstall the behavior policy for the restored round WITHOUT
    // republishing: the restored snapshots already contain whatever each
    // host (lying or honest) last published. A cursor of 0 means no
    // boundary has been processed yet — behaviors stay empty. The oracle's
    // adversarial set is runtime configuration, reinstalled like the
    // delivery filter.
    if (t > 0) refresh_behaviors(/*live=*/false, t - 1);
    if (oracle && !sc.byzantine.empty()) {
      oracle->set_adversarial(adv->byz_union);
    }
  }
  return {};
}

void JobRunner::checkpoint(persist::Writer& w) { impl_->save(w, false); }

void JobRunner::checkpoint_delta(persist::Writer& w) { impl_->save(w, true); }

persist::Status JobRunner::restore(persist::Reader& r) {
  return impl_->load(r, false);
}

persist::Status JobRunner::restore_delta(persist::Reader& r) {
  return impl_->load(r, true);
}

JobResult run_job(const Scenario& sc, const JobSpec& spec,
                  std::size_t engine_workers,
                  std::optional<verify::OracleConfig> oracle) {
  JobRunner runner(sc, spec, engine_workers, oracle);
  runner.run();
  return runner.result();
}

// --- campaign checkpoint file ------------------------------------------------

std::vector<JobSpec> expand_jobs(const Scenario& sc) {
  std::vector<JobSpec> jobs;
  jobs.reserve(sc.num_jobs());
  std::size_t index = 0;
  for (graph::Family family : sc.families) {
    for (std::size_t hosts : sc.host_counts) {
      for (std::uint64_t seed = sc.seed_lo; seed <= sc.seed_hi; ++seed) {
        jobs.push_back(JobSpec{index++, family, hosts, seed});
      }
    }
  }
  return jobs;
}

namespace {

/// One traversal writes (`Jobs` = const vector) and reads the campaign
/// file. The embedded scenario text is verified on read, so a stale file
/// from a different scenario fails loudly instead of resuming nonsense.
template <typename A, typename Jobs>
void persist_campaign(A& a, const Scenario& sc, Jobs& jobs) {
  persist::section(a, persist::tag4("SCEN"), [&] {
    const std::string want = sc.to_text();
    std::string text = want;
    std::uint64_t n = jobs.size();
    a(text);
    a(n);
    if constexpr (A::kIsReader) {
      if (persist::require(
              a, text == want,
              "checkpoint belongs to a different scenario (stale file?)") &&
          persist::require(a, n == sc.num_jobs(),
                           "checkpoint job count mismatch")) {
        jobs.resize(static_cast<std::size_t>(n));
      }
    }
  });
  for (auto& jc : jobs) {
    persist::section(a, persist::tag4("JOB "), [&] {
      a(jc.state);
      switch (jc.state) {
        case JobCheckpoint::State::kPending:
          break;
        case JobCheckpoint::State::kInProgress:
          a(jc.snapshot);
          a(jc.deltas);
          break;
        case JobCheckpoint::State::kDone:
          a(jc.result);
          break;
        default:
          persist::require(a, false, "unknown job state in checkpoint");
      }
    });
  }
}

}  // namespace

persist::Status write_campaign_checkpoint(
    const std::string& path, const Scenario& sc,
    const std::vector<JobCheckpoint>& jobs) {
  persist::Writer w(persist::BlobKind::kCampaign);
  persist_campaign(w, sc, jobs);
  return persist::write_file(path, w.bytes());
}

persist::Status read_campaign_checkpoint(const std::string& path,
                                         const Scenario& sc,
                                         std::vector<JobCheckpoint>& out) {
  std::vector<std::uint8_t> bytes;
  if (auto s = persist::read_file(path, bytes); !s.ok) return s;
  persist::Reader r(bytes);
  if (auto s = r.expect_header(persist::BlobKind::kCampaign); !s.ok) return s;
  if (auto s = r.validate_sections(); !s.ok) return s;
  out.clear();
  persist_campaign(r, sc, out);
  if (!r.ok()) return r.status();
  return r.expect_end();
}

// --- campaign runner ---------------------------------------------------------

CampaignReport run_campaign(const Scenario& sc, const RunOptions& opts) {
  CHS_CHECK_MSG(sc.validate().empty(), "scenario failed validation");
  const std::vector<JobSpec> jobs = expand_jobs(sc);
  std::vector<JobResult> results(jobs.size());

  const bool checkpointing = !opts.checkpoint_path.empty();
  std::vector<JobCheckpoint> states(jobs.size());
  if (!opts.resume_path.empty()) {
    const auto s = read_campaign_checkpoint(opts.resume_path, sc, states);
    CHS_CHECK_MSG(s.ok, s.error.c_str());
  }

  // Shared checkpoint-file state. Jobs only ever write their own slot, but
  // every flush serializes all slots, so slot writes and flushes share one
  // mutex; the job simulations themselves never touch it.
  std::mutex mu;
  std::uint64_t writes = 0;
  std::atomic<bool> halted{false};
  const auto flush_locked = [&]() {
    const auto s = write_campaign_checkpoint(opts.checkpoint_path, sc, states);
    CHS_CHECK_MSG(s.ok, s.error.c_str());
    ++writes;
    if (opts.halt_after_checkpoints != 0 &&
        writes >= opts.halt_after_checkpoints) {
      halted.store(true, std::memory_order_relaxed);
    }
  };
  const auto commit_and_flush = [&](std::size_t i, JobCheckpoint jc) {
    std::lock_guard<std::mutex> lock(mu);
    states[i] = std::move(jc);
    flush_locked();
  };
  // Append one delta to job i's chain; the base snapshot and earlier deltas
  // stand (resume replays base + deltas in order).
  const auto commit_delta_and_flush = [&](std::size_t i,
                                          std::vector<std::uint8_t> delta) {
    std::lock_guard<std::mutex> lock(mu);
    states[i].deltas.push_back(std::move(delta));
    flush_locked();
  };

  // Telemetry (DESIGN.md D12): per-job flight recorders dump on failure;
  // wall-clock phase profiles merge into one campaign-wide accumulator.
  // Both are diagnostic — armed or not, the report's deterministic bytes
  // (and every checkpoint) are identical.
  const bool flight_on =
      !opts.flight_dir.empty() || static_cast<bool>(opts.flight_sink);
  std::mutex perf_mu;
  sim::RoundProfile perf_total;

  const auto run_one = [&](std::size_t i) {
    if (states[i].state == JobCheckpoint::State::kDone) {
      results[i] = states[i].result;  // resume: recorded result reused
      return;
    }
    std::optional<obs::FlightRecorder> flight;
    if (flight_on) flight.emplace();
    JobRunner runner(sc, jobs[i], opts.engine_workers, opts.oracle);
    if (states[i].state == JobCheckpoint::State::kInProgress) {
      persist::Reader r(states[i].snapshot);
      auto s = r.expect_header(persist::BlobKind::kJob);
      if (s.ok) s = runner.restore(r);
      if (s.ok) s = r.expect_end();
      CHS_CHECK_MSG(s.ok, s.error.c_str());
      // Replay the delta chain on top of the base, oldest first. Each
      // restore_delta verifies its parent content hash, so a reordered or
      // truncated-in-the-middle chain fails loudly here.
      for (const auto& d : states[i].deltas) {
        persist::Reader dr(d);
        s = dr.expect_header(persist::BlobKind::kJobDelta);
        if (s.ok) s = runner.restore_delta(dr);
        if (s.ok) s = dr.expect_end();
        CHS_CHECK_MSG(s.ok, s.error.c_str());
      }
    }
    // After restore: the flight observer's transition cache must seed from
    // the restored state, and the profiler is process configuration. The
    // oracle's attach-time check of the initial configuration ran in the
    // constructor, before the sink was set, and is not narrated.
    if (flight) runner.set_flight(&*flight);
    sim::RoundProfile prof;
    if (opts.profile) runner.set_profiler(&prof);
    JobRunner::RoundHook hook;
    std::uint64_t last_snapshot_round = runner.engine_round();
    // Delta-chain policy (DESIGN.md D10): the first mid-job snapshot is a
    // full base; later ones are deltas until the chain reaches kMaxChain
    // blobs or the deltas' summed size passes half the base — then rebase.
    // A resumed job inherits its on-disk chain and keeps extending it.
    constexpr std::size_t kMaxChain = 8;
    std::size_t chain_len = states[i].deltas.size();
    std::uint64_t base_bytes = states[i].snapshot.size();
    std::uint64_t delta_bytes = 0;
    for (const auto& d : states[i].deltas) delta_bytes += d.size();
    if (checkpointing && opts.checkpoint_every > 0) {
      hook = [&, i](JobRunner& jr) {
        if (halted.load(std::memory_order_relaxed)) return false;
        if (jr.engine_round() - last_snapshot_round >= opts.checkpoint_every) {
          last_snapshot_round = jr.engine_round();
          const bool delta_ok = jr.engine().has_checkpoint_base() &&
                                chain_len < kMaxChain &&
                                delta_bytes <= base_bytes / 2;
          if (delta_ok) {
            persist::Writer w(persist::BlobKind::kJobDelta);
            jr.checkpoint_delta(w);
            std::vector<std::uint8_t> d = w.take();
            ++chain_len;
            delta_bytes += d.size();
            commit_delta_and_flush(i, std::move(d));
          } else {
            persist::Writer w(persist::BlobKind::kJob);
            jr.checkpoint(w);
            JobCheckpoint jc;
            jc.state = JobCheckpoint::State::kInProgress;
            jc.snapshot = w.take();
            chain_len = 0;
            delta_bytes = 0;
            base_bytes = jc.snapshot.size();
            commit_and_flush(i, std::move(jc));  // empty deltas: chain reset
          }
        }
        return !halted.load(std::memory_order_relaxed);
      };
    } else if (opts.halt_after_checkpoints != 0) {
      hook = [&](JobRunner&) {
        return !halted.load(std::memory_order_relaxed);
      };
    }
    runner.run(hook);
    if (opts.profile) {
      std::lock_guard<std::mutex> lock(perf_mu);
      perf_total.merge(prof);
    }
    if (!runner.finished()) return;  // halted mid-job; snapshot stands
    results[i] = runner.result();
    if (flight && opts.flight_sink) opts.flight_sink(results[i], *flight);
    if (flight && !opts.flight_dir.empty()) {
      // A failed job — non-convergence or an oracle hard-fail — leaves its
      // black box behind: a Chrome-trace dump plus a .scn repro of the
      // scenario, named by job index.
      const JobResult& jr = results[i];
      if (!jr.converged || !jr.oracle_violation.empty()) {
        const std::string stem = opts.flight_dir + "/" + sc.name + "_job" +
                                 std::to_string(jobs[i].index);
        const std::string trace = flight->to_chrome_trace();
        auto s = persist::write_file(
            stem + ".trace.json",
            std::vector<std::uint8_t>(trace.begin(), trace.end()));
        CHS_CHECK_MSG(s.ok, s.error.c_str());
        const std::string scn = sc.to_text();
        s = persist::write_file(
            stem + ".scn", std::vector<std::uint8_t>(scn.begin(), scn.end()));
        CHS_CHECK_MSG(s.ok, s.error.c_str());
      }
    }
    if (checkpointing) {
      JobCheckpoint jc;
      jc.state = JobCheckpoint::State::kDone;
      jc.result = results[i];
      commit_and_flush(i, std::move(jc));
    }
  };

  const std::size_t k =
      std::min(std::max<std::size_t>(1, opts.jobs), std::max<std::size_t>(
                                                        1, jobs.size()));
  if (k == 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (halted.load(std::memory_order_relaxed)) break;
      run_one(i);
    }
  } else {
    // Dynamic claiming balances wildly uneven job lengths; determinism is
    // untouched because each job is self-contained and lands in its own
    // index slot — claim order is invisible to the merged report.
    std::atomic<std::size_t> next{0};
    const auto work = [&]() {
      for (;;) {
        if (halted.load(std::memory_order_relaxed)) return;
        const std::size_t i = next.fetch_add(1);
        if (i >= jobs.size()) return;
        run_one(i);
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(k - 1);
    for (std::size_t w = 0; w + 1 < k; ++w) threads.emplace_back(work);
    work();  // the caller participates
    for (std::thread& th : threads) th.join();
  }
  CampaignReport report = make_report(sc, std::move(results));
  report.halted = halted.load(std::memory_order_relaxed);
  report.perf = perf_total;
  return report;
}

}  // namespace chs::campaign
