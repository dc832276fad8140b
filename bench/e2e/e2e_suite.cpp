// End-to-end benchmark program: the runs people do with chordsim, timed from
// outside the library. See bench/e2e/README.md for the workloads, metrics
// and how run.py drives this binary.
//
//   bench_e2e_suite --workload W [--seed S] [--seconds T] [--trace DIR]
//
// A workload is a fixed recipe (sizes and worker count are constants here,
// never flags). A run measures a fixed set of kInputs inputs drawn from the
// seed. One *episode* is one setup plus one run of the recipe on one input;
// episode i takes input i mod kInputs. Episodes repeat until every input
// has run and about T wall-clock seconds are spent. Each input's times are
// medians over its episodes, and the metrics combine those medians over the
// whole set, so a faster build takes more samples of the same inputs, never
// different ones.
// Every episode is checked (convergence, byte-equal restore, settled ops)
// and reduced to a behaviour digest; repeats of an input must reproduce its
// digest, and episode 0's is compared by run.py against expected.json.
//
// Before each episode, untimed, a fixed calibration kernel measures the
// host's current speed; the end-to-end timings are rescaled by the run's
// median calibration time to what a reference host would read, so a
// shared host's slow drift in speed cancels (the raw values are reported
// too). Untraced runs read the clock only around setup and run calls. With
// --trace, spans are kept in memory around every call into a layer, the
// engine's five-phase profiler is armed, and DIR/<workload>.trace.json
// (Chrome trace-event format) plus DIR/<workload>.layers.json are written
// at exit. Traced runs first replay episode 0 untraced, so the tracing
// overhead is measured on identical work.
//
// Prints one JSON object on stdout. Exit status 0 means the run finished;
// whether its outputs were correct is the "correct" field.
#include <malloc.h>  // malloc_trim

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/churn.hpp"
#include "core/network.hpp"
#include "dht/workload.hpp"
#include "graph/generators.hpp"
#include "obs/series.hpp"
#include "persist/fields.hpp"
#include "sim/profile.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace chs;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// Salt of the streams derived from a seed: a run's inputs, and the churn
// burst of one churn_recover input.
constexpr std::uint64_t kSalt = 0xe2e5'17e0'cafe'f00dULL;

// Size of a run's input set: enough inputs that one input's quirks do not
// set the result, few enough that every input runs at least twice in a run.
constexpr std::uint64_t kInputs = 4;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- spans ------------------------------------------------------------------

const char* const kSimPhase[sim::kRoundPhases] = {
    "sim.scan", "sim.step", "sim.apply", "sim.publish", "sim.observer"};
const char* const kKvPhase[sim::kRoundPhases] = {
    "dht.kv.scan", "dht.kv.step", "dht.kv.apply", "dht.kv.publish",
    "dht.kv.observer"};

// In-memory span recorder: name, start, end and parent of every call the
// benchmark makes into a layer. Disabled, open/close are one branch each and
// read no clock.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };
  struct Totals {
    std::int64_t self_ns = 0;
    std::int64_t total_ns = 0;
    std::uint64_t count = 0;
  };

  void enable(bool on) { on_ = on; }
  bool on() const { return on_; }

  int open(const char* name) {
    if (!on_) return -1;
    spans_.push_back({name, now_ns(), 0, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }

  void close(int id) {
    if (id < 0) return;
    spans_[id].end_ns = now_ns();
    open_ = spans_[id].parent;
  }

  // Children of closed span `parent`, one per engine phase, laid end to end
  // from its start: the RoundProfile delta says how long each phase took
  // inside the call the span brackets.
  void phases(int parent, const char* const names[],
              const sim::RoundProfile& before, const sim::RoundProfile& after) {
    if (parent < 0) return;
    std::int64_t t = spans_[parent].start_ns;
    for (std::size_t i = 0; i < sim::kRoundPhases; ++i) {
      const auto d = static_cast<std::int64_t>(after.ns[i] - before.ns[i]);
      spans_.push_back({names[i], t, t + d, parent});
      t += d;
    }
  }

  // Per span name: self time (duration minus the children's), total time,
  // and the number of spans.
  std::map<std::string, Totals> totals() const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      const std::int64_t d = spans_[i].end_ns - spans_[i].start_ns;
      t.total_ns += d;
      t.self_ns += d - child[i];
      ++t.count;
    }
    return out;
  }

  // Chrome trace-event JSON, one event per line so tools can stream it.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}",
                   i == 0 ? "" : ",", s.name,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
  }

  bool on_ = false;
  int open_ = -1;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// --- behaviour digest -------------------------------------------------------

// FNV-1a over protocol-visible outputs only (never nodes stepped or
// snapshots published), so active-set, batching and parallel changes keep
// the digest. Integers are fed as 8 little-endian bytes.
struct Fnv {
  std::uint64_t h = 14695981039346656037ULL;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, 8);
  }
};

std::uint64_t engine_digest(const core::StabEngine& eng, std::uint64_t rounds) {
  Fnv d;
  d.u64(rounds);
  // Already sorted: the graph keeps its ids and adjacency rows sorted.
  const auto edges = eng.graph().edge_list();
  d.u64(edges.size());
  for (const auto& [u, v] : edges) {
    d.u64(u);
    d.u64(v);
  }
  const sim::RunMetrics& m = eng.metrics();
  d.u64(m.messages());
  d.u64(m.edge_adds());
  d.u64(m.edge_dels());
  d.u64(m.max_degree_trace().size());
  for (std::size_t x : m.max_degree_trace()) d.u64(x);
  d.u64(core::total_resets(eng));
  return d.h;
}

// --- per-layer accumulators -------------------------------------------------

// Engine work counters from RunMetrics, as a delta over one run.
struct Work {
  std::uint64_t rounds = 0, stepped = 0, snapshots = 0, messages = 0,
                adds = 0, dels = 0, stale = 0, actions = 0;
  std::uint64_t host_rounds = 0;  // active_frac denominator

  static Work of(const sim::RunMetrics& m) {
    return {m.rounds(),    m.nodes_stepped(), m.snapshots_published(),
            m.messages(),  m.edge_adds(),     m.edge_dels(),
            m.stale_cert_drops(), m.round_actions(), 0};
  }
  void add_delta(const Work& a, const Work& b, std::uint64_t hosts) {
    rounds += b.rounds - a.rounds;
    stepped += b.stepped - a.stepped;
    snapshots += b.snapshots - a.snapshots;
    messages += b.messages - a.messages;
    adds += b.adds - a.adds;
    dels += b.dels - a.dels;
    stale += b.stale - a.stale;
    actions += b.actions - a.actions;
    host_rounds += hosts * (b.rounds - a.rounds);
  }
};

struct Layers {
  sim::RoundProfile sim_prof, kv_prof;  // armed only while tracing
  Work sim, kv;
  std::uint64_t is_converged_calls = 0;
  std::uint64_t total_resets = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t bytes_per_host = 0;
  std::uint64_t blob_bytes = 0;
  dht::WorkloadTotals wl;
  std::vector<std::uint64_t> lat_hist;
};

struct Ctx {
  Tracer tr;
  Layers lay;
};

// Outcome of one episode's checks.
struct Episode {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::string error;  // first failed check; empty when correct
};

void arm(Ctx& c, core::StabEngine& eng) {
  eng.set_profiler(c.tr.on() ? &c.lay.sim_prof : nullptr);
}

// One engine round as the caller sees it, with the phase split as children.
void step(Ctx& c, core::StabEngine& eng) {
  if (!c.tr.on()) {
    eng.step_round();
    return;
  }
  const sim::RoundProfile before = c.lay.sim_prof;
  const int id = c.tr.open("sim.step_round");
  eng.step_round();
  c.tr.close(id);
  c.tr.phases(id, kSimPhase, before, c.lay.sim_prof);
}

bool converged(Ctx& c, const core::StabEngine& eng) {
  Scope s(c.tr, "core.is_converged");
  ++c.lay.is_converged_calls;
  return core::is_converged(eng);
}

// The loop every convergence workload runs: check, step, check, ...
// Returns rounds stepped; `ok` reports convergence within `cap` rounds.
std::uint64_t run_to_converged(Ctx& c, core::StabEngine& eng,
                               std::uint64_t cap, bool& ok) {
  std::uint64_t rounds = 0;
  ok = converged(c, eng);
  while (!ok && rounds < cap) {
    Scope r(c.tr, "round");
    step(c, eng);
    ok = converged(c, eng);
    ++rounds;
  }
  return rounds;
}

// Converged Avatar(Chord) network: the BENCH_micro fixture recipe (every
// finger level installed, then run to quiescence and drained).
std::unique_ptr<core::StabEngine> converged_fixture(Ctx& c, std::size_t hosts,
                                                    std::uint64_t guests,
                                                    std::uint64_t seed) {
  util::Rng rng(seed);
  auto ids = graph::sample_ids(hosts, guests, rng);
  core::Params p;
  p.n_guests = guests;
  graph::Graph g;
  {
    Scope s(c.tr, "core.scaffold_graph");
    g = core::scaffold_graph(ids, guests);
  }
  std::unique_ptr<core::StabEngine> eng;
  {
    Scope s(c.tr, "core.make_engine");
    eng = core::make_engine(std::move(g), p, seed);
  }
  {
    Scope s(c.tr, "core.install");
    core::install_chord_built_upto(
        *eng, static_cast<std::int32_t>(eng->protocol().num_waves()) - 1,
        &ids);
  }
  {
    Scope s(c.tr, "core.quiesce");
    eng->run_until(
        [](core::StabEngine& e) { return e.quiescent_streak() >= 8; }, 5000);
    for (int i = 0; i < 5000 && eng->pending_events() != 0; ++i) {
      eng->step_round();
    }
  }
  return eng;
}

// Fold a finished convergence run into the sim/stabilizer layer counters.
void account_engine(Ctx& c, core::StabEngine& eng, const Work& before) {
  c.lay.sim.add_delta(before, Work::of(eng.metrics()), eng.graph().size());
  c.lay.total_resets += core::total_resets(eng);
  c.lay.peak_pending = std::max<std::uint64_t>(
      c.lay.peak_pending, eng.metrics().peak_pending_events());
  eng.record_live_bytes();
  c.lay.bytes_per_host = eng.metrics().bytes_per_host();
}

// The checks of a convergence episode end in `error` (empty when all
// passed); the digest and the layer counters come from its engine.
Episode engine_episode(Ctx& c, core::StabEngine& eng, const Work& before,
                       std::uint64_t rounds, std::string error) {
  Episode ep;
  ep.attempted = 1;
  ep.failed = error.empty() ? 0 : 1;
  ep.error = std::move(error);
  ep.digest = engine_digest(eng, rounds);
  account_engine(c, eng, before);
  return ep;
}

// --- workloads --------------------------------------------------------------

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  /// Build the episode's inputs (timed as setup).
  virtual void setup(Ctx& c, std::uint64_t seed) = 0;
  /// Run the episode (timed); returns the work units it completed.
  virtual std::uint64_t run(Ctx& c) = 0;
  /// Untimed: check the outputs, fill the digest, release the episode.
  virtual Episode finish(Ctx& c) = 0;
};

// The paper's Theorem 2/5 run: a random tree of hosts stabilizes into
// Avatar(Chord). E1's n = N/4.
class ColdStart final : public Workload {
 public:
  static constexpr std::size_t kHosts = 512;
  static constexpr std::uint64_t kGuests = 2048;
  static constexpr std::uint64_t kCap = 200000;

  void setup(Ctx& c, std::uint64_t seed) override {
    util::Rng rng(seed);
    auto ids = graph::sample_ids(kHosts, kGuests, rng);
    graph::Graph g = graph::make_random_tree(std::move(ids), rng);
    core::Params p;
    p.n_guests = kGuests;
    Scope s(c.tr, "core.make_engine");
    eng_ = core::make_engine(std::move(g), p, seed);
  }

  std::uint64_t run(Ctx& c) override {
    arm(c, *eng_);
    before_ = Work::of(eng_->metrics());
    rounds_ = run_to_converged(c, *eng_, kCap, ok_);
    return rounds_;
  }

  Episode finish(Ctx& c) override {
    Episode ep = engine_episode(
        c, *eng_, before_, rounds_,
        ok_ ? "" : "cold_start: not converged after " +
                       std::to_string(rounds_) + " rounds");
    eng_.reset();
    return ep;
  }

 private:
  std::unique_ptr<core::StabEngine> eng_;
  Work before_;
  std::uint64_t rounds_ = 0;
  bool ok_ = false;
};

// A burst of simultaneous crash-and-rejoins on a converged network, then
// recovery to Avatar(Chord): the stabilizer tearing down a dense overlay.
class ChurnRecover final : public Workload {
 public:
  static constexpr std::size_t kHosts = 256;
  static constexpr std::uint64_t kGuests = 1024;
  static constexpr std::uint64_t kBurst = 4;
  static constexpr std::uint64_t kCap = 200000;

  void setup(Ctx& c, std::uint64_t seed) override {
    eng_ = converged_fixture(c, kHosts, kGuests, seed);
    fixture_ok_ = converged(c, *eng_);
    seed_ = seed;
  }

  std::uint64_t run(Ctx& c) override {
    arm(c, *eng_);
    before_ = Work::of(eng_->metrics());
    {
      Scope s(c.tr, "core.churn_burst");
      util::Rng rng(seed_ ^ kSalt);
      core::churn_burst(*eng_, kBurst, rng);
    }
    rounds_ = run_to_converged(c, *eng_, kCap, ok_);
    return rounds_;
  }

  Episode finish(Ctx& c) override {
    std::string error;
    if (!fixture_ok_) {
      error = "churn_recover: fixture not converged before the burst";
    } else if (!ok_) {
      error = "churn_recover: not reconverged after " +
              std::to_string(rounds_) + " rounds";
    }
    Episode ep = engine_episode(c, *eng_, before_, rounds_, std::move(error));
    eng_.reset();
    return ep;
  }

 private:
  std::unique_ptr<core::StabEngine> eng_;
  Work before_;
  std::uint64_t seed_ = 0, rounds_ = 0;
  bool fixture_ok_ = false, ok_ = false;
};

// Lemma 3 at scale: the legal Avatar(Cbt) scaffold in phase kChord builds
// Avatar(Chord) with 2 workers; the result is checkpointed and restored
// onto a fresh engine built during setup, so the timed run is convergence,
// checkpoint and restore only.
class ScaffoldBuild final : public Workload {
 public:
  static constexpr std::size_t kHosts = 4096;
  static constexpr std::uint64_t kGuests = 8192;
  static constexpr std::size_t kWorkers = 2;
  static constexpr std::uint64_t kCap = 20000;

  void setup(Ctx& c, std::uint64_t seed) override {
    util::Rng rng(seed);
    const auto ids = graph::sample_ids(kHosts, kGuests, rng);
    eng_ = scaffold_engine(c, ids, seed);
    {
      Scope s(c.tr, "core.install");
      core::install_legal_cbt(*eng_, core::Phase::kChord);
    }
    eng_->set_worker_threads(kWorkers);
    restored_ = scaffold_engine(c, ids, seed);
  }

  std::uint64_t run(Ctx& c) override {
    arm(c, *eng_);
    before_ = Work::of(eng_->metrics());
    rounds_ = run_to_converged(c, *eng_, kCap, ok_);
    {
      Scope s(c.tr, "persist.checkpoint");
      blob_ = eng_->checkpoint_blob();
    }
    {
      Scope s(c.tr, "persist.restore");
      restore_ = restored_->restore_blob(blob_);
    }
    return rounds_;
  }

  Episode finish(Ctx& c) override {
    std::string error;
    if (!ok_) {
      error = "scaffold_build: not converged after " +
              std::to_string(rounds_) + " rounds";
    } else if (!restore_.ok) {
      error = "scaffold_build: restore failed: " + restore_.error;
    } else if (restored_->checkpoint_blob() != blob_) {
      error = "scaffold_build: restored engine's blob differs";
    } else if (!core::is_converged(*restored_)) {
      error = "scaffold_build: restored engine not converged";
    }
    Episode ep = engine_episode(c, *eng_, before_, rounds_, std::move(error));
    c.lay.blob_bytes += blob_.size();
    eng_.reset();
    restored_.reset();
    blob_ = {};
    return ep;
  }

 private:
  static std::unique_ptr<core::StabEngine> scaffold_engine(
      Ctx& c, const std::vector<graph::NodeId>& ids, std::uint64_t seed) {
    graph::Graph g;
    {
      Scope s(c.tr, "core.scaffold_graph");
      g = core::scaffold_graph(ids, kGuests);
    }
    core::Params p;
    p.n_guests = kGuests;
    Scope s(c.tr, "core.make_engine");
    return core::make_engine(std::move(g), p, seed);
  }

  std::uint64_t rounds_ = 0;
  std::unique_ptr<core::StabEngine> eng_, restored_;
  std::vector<std::uint8_t> blob_;
  persist::Status restore_;
  Work before_;
  bool ok_ = false;
};

// Open-loop Zipf KV traffic on a converged network: the data plane works,
// the control plane is quiescent.
class Serve final : public Workload {
 public:
  static constexpr std::size_t kHosts = 2048;
  static constexpr std::uint64_t kGuests = 4096;
  static constexpr std::uint64_t kCap = 100000;

  static dht::WorkloadConfig config() {
    dht::WorkloadConfig w;
    w.begin = 0;
    w.end = 60;
    w.rate = 1000;
    w.keys = 65536;
    w.zipf = 0.99;
    w.put_fraction = 0.10;
    w.replicas = 3;
    w.prefill = 8192;
    return w;
  }

  void setup(Ctx& c, std::uint64_t seed) override {
    eng_ = converged_fixture(c, kHosts, kGuests, seed);
    Scope s(c.tr, "dht.driver_setup");
    wl_ = std::make_unique<dht::WorkloadDriver>(*eng_, config(), seed,
                                                /*max_delay=*/1);
  }

  std::uint64_t run(Ctx& c) override {
    arm(c, *eng_);
    dht::KvEngine& kv = wl_->engine();
    kv.set_profiler(c.tr.on() ? &c.lay.kv_prof : nullptr);
    sim_before_ = Work::of(eng_->metrics());
    kv_before_ = Work::of(kv.metrics());
    t_ = 0;
    while (!wl_->idle(t_) && t_ < kCap) {
      Scope r(c.tr, "round");
      step(c, *eng_);
      const sim::RoundProfile before = c.lay.kv_prof;
      const int id = c.tr.open("dht.on_timeline_round");
      wl_->on_timeline_round(t_, *eng_);
      c.tr.close(id);
      c.tr.phases(id, kKvPhase, before, c.lay.kv_prof);
      ++t_;
    }
    return wl_->totals().completed;
  }

  Episode finish(Ctx& c) override {
    const dht::WorkloadConfig cfg = config();
    const dht::WorkloadTotals& t = wl_->totals();
    Episode ep;
    ep.attempted = t.issued;
    ep.failed = t.issued - std::min(t.issued, t.completed);
    if (t.issued != cfg.rate * (cfg.end - cfg.begin)) {
      ep.error = "serve: issued " + std::to_string(t.issued) + " ops";
    } else if (!wl_->idle(t_) || t.completed + t.timeouts != t.issued) {
      ep.error = "serve: ops unsettled after " + std::to_string(t_) + " rounds";
    } else if (t.timeouts != 0 || wl_->drops() != 0) {
      ep.error = "serve: " + std::to_string(t.timeouts) + " timeouts, " +
                 std::to_string(wl_->drops()) + " drops";
    }
    ep.failed = std::max<std::uint64_t>(ep.failed, ep.error.empty() ? 0 : 1);

    Fnv d;
    for (std::uint64_t v : {t.issued, t.completed, t.timeouts, t.retries,
                            t.hits, t.peak_inflight}) {
      d.u64(v);
    }
    for (std::uint64_t v : wl_->lat_hist()) d.u64(v);
    d.u64(wl_->drops());
    ep.digest = d.h;

    account_engine(c, *eng_, sim_before_);
    dht::KvEngine& kv = wl_->engine();
    c.lay.kv.add_delta(kv_before_, Work::of(kv.metrics()), kv.graph().size());
    Layers& l = c.lay;
    l.wl.issued += t.issued;
    l.wl.completed += t.completed;
    l.wl.timeouts += t.timeouts;
    l.wl.retries += t.retries;
    l.wl.hits += t.hits;
    l.wl.peak_inflight = std::max(l.wl.peak_inflight, t.peak_inflight);
    l.lat_hist.resize(std::max(l.lat_hist.size(), wl_->lat_hist().size()));
    for (std::size_t i = 0; i < wl_->lat_hist().size(); ++i) {
      l.lat_hist[i] += wl_->lat_hist()[i];
    }
    wl_.reset();
    eng_.reset();
    return ep;
  }

 private:
  std::unique_ptr<core::StabEngine> eng_;
  std::unique_ptr<dht::WorkloadDriver> wl_;
  Work sim_before_, kv_before_;
  std::uint64_t t_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "cold_start") return std::make_unique<ColdStart>();
  if (name == "churn_recover") return std::make_unique<ChurnRecover>();
  if (name == "scaffold_build") return std::make_unique<ScaffoldBuild>();
  if (name == "serve") return std::make_unique<Serve>();
  return nullptr;
}

// --- host-speed calibration -------------------------------------------------

// Timings are reported as if measured on a host where the calibration
// kernel takes exactly this long: about its median on the 4-vCPU reference
// host, so reported and raw timings stay close there.
constexpr double kRefCalibS = 0.15;

// A fixed kernel that loads the host the way the simulator does: a sort of
// 1M random words (branchy compute over 8 MiB), then 2M scattered updates
// of a 32 MiB table (cache and memory latency). It uses nothing from the
// library, so no change under test moves it. Returns its wall time.
double calibration_s() {
  const auto t = Clock::now();
  std::uint64_t s = 0;
  const auto next = [&s] {  // SplitMix64
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  std::vector<std::uint64_t> words(std::size_t{1} << 20);
  for (std::uint64_t& w : words) w = next();
  std::sort(words.begin(), words.end());
  std::vector<std::uint32_t> table(std::size_t{1} << 23);
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < (std::size_t{1} << 21); ++i) {
    h = h * 6364136223846793005ULL + words[i & (words.size() - 1)];
    table[h >> 41] += static_cast<std::uint32_t>(i);
  }
  volatile std::uint32_t sink = table[h >> 41];
  (void)sink;
  return secs(t, Clock::now());
}

// --- reporting --------------------------------------------------------------

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Return freed heap to the kernel and restart the kernel's peak-RSS count,
// so the next reading is one episode's own peak. False when the kernel
// offers no reset.
bool restart_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.close();
  return !f.fail();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

// Comma-separated JSON items between `open` and `close`.
std::string join(char open, const std::vector<std::string>& items,
                 char close) {
  std::string out(1, open);
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += items[i];
  }
  out += close;
  return out;
}

std::string json_array(const std::vector<double>& xs) {
  std::vector<std::string> items;
  for (double x : xs) items.push_back(num(x));
  return join('[', items, ']');
}

using Metrics = std::vector<std::pair<std::string, double>>;

std::string json_object(const Metrics& m) {
  std::vector<std::string> items;
  for (const auto& [k, v] : m) items.push_back(json_str(k) + ":" + num(v));
  return join('{', items, '}');
}

// Per-layer metrics of a traced run (README.md lists each one and which
// end-to-end metric it should move).
Metrics layer_metrics(const Ctx& c, double overhead_frac) {
  const auto tot = c.tr.totals();
  const auto self_s = [&tot](const char* n) {
    auto it = tot.find(n);
    return it == tot.end() ? 0.0 : static_cast<double>(it->second.self_ns) / 1e9;
  };
  const auto total_s = [&tot](const char* n) {
    auto it = tot.find(n);
    return it == tot.end() ? 0.0 : static_cast<double>(it->second.total_ns) / 1e9;
  };
  const Layers& l = c.lay;
  const Work& s = l.sim;
  const Work& k = l.kv;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double ns = 1e9;
  const double blob_mb = d(l.blob_bytes) / (1024.0 * 1024.0);

  return {
      {"sim.scan_s", self_s("sim.scan")},
      {"sim.step_s", self_s("sim.step")},
      {"sim.apply_s", self_s("sim.apply")},
      {"sim.publish_s", self_s("sim.publish")},
      {"sim.observer_s", self_s("sim.observer")},
      {"sim.unprofiled_s", self_s("sim.step_round")},
      {"sim.rounds", d(s.rounds)},
      {"sim.nodes_stepped", d(s.stepped)},
      {"sim.snapshots_published", d(s.snapshots)},
      {"sim.messages", d(s.messages)},
      {"sim.edge_adds", d(s.adds)},
      {"sim.edge_dels", d(s.dels)},
      {"sim.stale_cert_drops", d(s.stale)},
      {"sim.round_actions", d(s.actions)},
      {"sim.peak_pending_events", d(l.peak_pending)},
      {"sim.step_ns_per_host_step", ratio(self_s("sim.step") * ns, d(s.stepped))},
      {"sim.publish_ns_per_snapshot",
       ratio(self_s("sim.publish") * ns, d(s.snapshots))},
      {"sim.apply_ns_per_edge_op",
       ratio(self_s("sim.apply") * ns, d(s.adds + s.dels))},
      {"sim.scan_us_per_round", ratio(self_s("sim.scan") * 1e6, d(s.rounds))},
      {"sim.active_frac", ratio(d(s.stepped), d(s.host_rounds))},
      {"sim.actions_per_step", ratio(d(s.actions), d(s.stepped))},
      {"sim.bytes_per_host", d(l.bytes_per_host)},
      {"stabilizer.total_resets", d(l.total_resets)},
      {"core.is_converged_s", self_s("core.is_converged")},
      {"core.is_converged_calls", d(l.is_converged_calls)},
      {"core.make_engine_s", self_s("core.make_engine")},
      {"core.scaffold_graph_s", self_s("core.scaffold_graph")},
      {"core.install_s", self_s("core.install")},
      {"core.quiesce_s", self_s("core.quiesce")},
      {"core.churn_burst_s", self_s("core.churn_burst")},
      {"setup.self_s", self_s("setup")},
      {"persist.blob_bytes", d(l.blob_bytes)},
      {"persist.write_s", self_s("persist.checkpoint")},
      {"persist.restore_s", self_s("persist.restore")},
      {"persist.write_mb_per_s", ratio(blob_mb, self_s("persist.checkpoint"))},
      {"persist.restore_mb_per_s", ratio(blob_mb, self_s("persist.restore"))},
      {"dht.kv_scan_s", self_s("dht.kv.scan")},
      {"dht.kv_step_s", self_s("dht.kv.step")},
      {"dht.kv_apply_s", self_s("dht.kv.apply")},
      {"dht.kv_publish_s", self_s("dht.kv.publish")},
      {"dht.kv_observer_s", self_s("dht.kv.observer")},
      {"dht.driver_self_s", self_s("dht.on_timeline_round")},
      {"dht.driver_setup_s", total_s("dht.driver_setup")},
      {"dht.kv_nodes_stepped", d(k.stepped)},
      {"dht.kv_active_frac", ratio(d(k.stepped), d(k.host_rounds))},
      {"dht.kv_messages", d(k.messages)},
      {"dht.kv_msgs_per_op", ratio(d(k.messages), d(l.wl.issued))},
      {"dht.issued", d(l.wl.issued)},
      {"dht.completed", d(l.wl.completed)},
      {"dht.timeouts", d(l.wl.timeouts)},
      {"dht.retries", d(l.wl.retries)},
      {"dht.peak_inflight", d(l.wl.peak_inflight)},
      {"dht.lat_p50_rounds", d(obs::lat_quantile(l.lat_hist, 5000))},
      {"dht.lat_p99_rounds", d(obs::lat_quantile(l.lat_hist, 9900))},
      {"bench.loop_self_s", self_s("run") + self_s("round")},
      {"trace.run_s", total_s("run")},
      {"trace.overhead_frac", overhead_frac},
  };
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e_suite --workload "
               "{cold_start|churn_recover|scaffold_build|serve}\n"
               "       [--seed S] [--seconds T] [--trace DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, trace_dir;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  Ctx c;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      name = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return usage();
    } else if (a == "--seconds") {
      seconds = std::strtod(v, &end);
      if (end == v || *end != '\0') return usage();
    } else if (a == "--trace") {
      trace_dir = v;
    } else {
      return usage();
    }
  }
  std::unique_ptr<Workload> w = make_workload(name);
  if (!w || !(seconds > 0)) return usage();
  util::set_log_level(util::LogLevel::kError);
  const bool traced = !trace_dir.empty();
  util::Rng root(seed ^ kSalt);
  std::vector<std::uint64_t> input_seed;
  for (std::uint64_t k = 0; k < kInputs; ++k) {
    input_seed.push_back(root.split(k).next_u64());
  }

  // Traced runs first time input 0 untraced, so the overhead compares the
  // same work both ways. The first pass only warms the heap and caches the
  // traced episodes will find warm.
  double untraced_run_s = 0.0;
  for (int pass = 0; traced && pass < 2; ++pass) {
    w->setup(c, input_seed[0]);
    const auto t = Clock::now();
    w->run(c);
    untraced_run_s = secs(t, Clock::now());
    w->finish(c);
  }
  if (traced) {
    c.lay = Layers{};
    c.tr.enable(true);
  }

  // One input's samples; its work and digest must repeat on every episode.
  struct Input {
    std::vector<double> setup_s, run_s, rss;
    std::uint64_t work = 0, digest = 0;
  };
  std::vector<Input> in(input_seed.size());
  std::vector<double> setup_s, run_s, rate, calib;  // every episode, in order
  std::uint64_t work = 0, attempted = 0, failed = 0;
  bool own_peaks = true;
  std::vector<std::string> errors;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    // Once every input has run, stop where one more episode of the mean
    // length would overshoot the target by more than stopping falls short.
    const double spent = secs(t0, Clock::now());
    if (i >= in.size() &&
        spent + 0.5 * spent / static_cast<double>(i) >= seconds) {
      break;
    }
    const std::uint64_t k = i % in.size();
    Input& x = in[k];
    calib.push_back(calibration_s());
    const bool own_peak = restart_peak_rss();
    auto t = Clock::now();
    {
      Scope s(c.tr, "setup");
      w->setup(c, input_seed[k]);
    }
    setup_s.push_back(secs(t, Clock::now()));
    std::uint64_t done = 0;
    t = Clock::now();
    {
      Scope s(c.tr, "run");
      done = w->run(c);
    }
    run_s.push_back(secs(t, Clock::now()));
    work += done;
    rate.push_back(static_cast<double>(done) / run_s.back());
    x.setup_s.push_back(setup_s.back());
    x.run_s.push_back(run_s.back());
    if (own_peak) {
      x.rss.push_back(peak_rss_mib());
    } else {
      own_peaks = false;
    }
    Episode ep = w->finish(c);
    attempted += ep.attempted;
    failed += ep.failed;
    if (!ep.error.empty()) errors.push_back(ep.error);
    if (x.run_s.size() == 1) {
      x.work = done;
      x.digest = ep.digest;
    } else if (done != x.work || ep.digest != x.digest) {
      errors.push_back("episode " + std::to_string(i) +
                       " did not repeat the outputs of input " +
                       std::to_string(k));
    }
  }
  const std::size_t episodes = run_s.size();

  double total_run = 0.0;
  for (double r : run_s) total_run += r;
  // Per input, medians over its episodes: a burst of interference from
  // other processes moves one episode, not the reported value. Then over
  // the input set: total work over total run time, and the median setup
  // and peak (the largest peak would follow the one input with the biggest
  // case, not the code).
  double set_work = 0.0, set_run = 0.0;
  std::vector<double> setup, rss;
  for (const Input& x : in) {
    set_work += static_cast<double>(x.work);
    set_run += median(x.run_s);
    setup.push_back(median(x.setup_s));
    if (own_peaks) rss.push_back(median(x.rss));
  }
  // A shared host drifts in speed by tens of percent over minutes, and the
  // drift moves the calibration kernel as it moves the episodes. Timings
  // are rescaled to the reference host (slowdown 1), so the drift cancels
  // and a change to the code does not.
  const double slowdown = median(calib) / kRefCalibS;
  const Metrics raw = {
      {"setup_s", median(setup)},
      {"work_per_s", ratio(set_work, set_run)},
  };
  const Metrics e2e = {
      {"setup_s", raw[0].second / slowdown},
      {"work_per_s", raw[1].second * slowdown},
      {"peak_rss_mb", own_peaks ? median(rss) : peak_rss_mib()},
  };

  std::string layers = "null";
  if (traced) {
    const double traced_first = run_s.empty() ? 0.0 : run_s.front();
    const Metrics lm =
        layer_metrics(c, ratio(traced_first, untraced_run_s) - 1.0);
    layers = json_object(lm);
    std::error_code ec;
    fs::create_directories(trace_dir, ec);
    const std::string base = trace_dir + "/" + name;
    std::vector<std::string> spans;
    for (const auto& [n, t] : c.tr.totals()) {
      spans.push_back(json_str(n) + ":{\"self_s\":" +
                      num(static_cast<double>(t.self_ns) / 1e9) +
                      ",\"total_s\":" +
                      num(static_cast<double>(t.total_ns) / 1e9) +
                      ",\"count\":" + std::to_string(t.count) + "}");
    }
    std::ofstream out(base + ".layers.json");
    out << "{\"workload\":" << json_str(name) << ",\"metrics\":" << layers
        << ",\"spans\":" << join('{', spans, '}') << "}\n";
    if (!out || !c.tr.write_chrome(base + ".trace.json")) {
      errors.push_back("cannot write the trace under " + trace_dir);
    }
  }

  std::vector<std::string> errs;
  for (const std::string& e : errors) errs.push_back(json_str(e));
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"build_type\":\"%s\","
      "\"compiler\":%s,\"inputs\":%zu,\"episodes\":%zu,\"work\":%llu,"
      "\"run_s\":%s,\"attempted\":%llu,\"failed\":%llu,\"correct\":%s,"
      "\"digest\":\"%s\",\"errors\":%s,\"setup_samples_s\":%s,"
      "\"episode_run_s\":%s,\"episode_rate\":%s,\"calibration_s\":%s,"
      "\"slowdown\":%s,\"raw_e2e\":%s,\"e2e\":%s,\"layers\":%s}\n",
      json_str(name).c_str(), static_cast<unsigned long long>(seed),
      num(seconds).c_str(), build_type, json_str(__VERSION__).c_str(),
      in.size(), episodes, static_cast<unsigned long long>(work),
      num(total_run).c_str(), static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      errors.empty() ? "true" : "false", hex(in[0].digest).c_str(),
      join('[', errs, ']').c_str(),
      json_array(setup_s).c_str(), json_array(run_s).c_str(),
      json_array(rate).c_str(), json_array(calib).c_str(),
      num(slowdown).c_str(), json_object(raw).c_str(),
      json_object(e2e).c_str(), layers.c_str());
  return 0;
}
