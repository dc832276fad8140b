// Microbenchmarks of the geometry and engine hot paths (google-benchmark).
// These are the per-round primitives whose cost determines how large an N
// the experiment sweeps can afford.
//
// Engine knob exercised here (default 1 — see DESIGN.md D6):
// Engine::set_worker_threads(k) — deterministic parallel rounds: the
// stepped set and dirty-publish set shard across k workers with bit-for-bit
// identical traces at any k (BM_EngineBusyRound sweeps k; speedup tracks
// physical cores, so expect none on a 1-vCPU host).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "avatar/range.hpp"
#include "campaign/runner.hpp"
#include "core/network.hpp"
#include "dht/kvstore.hpp"
#include "graph/generators.hpp"
#include "obs/series.hpp"
#include "persist/fields.hpp"
#include "persist/io.hpp"
#include "routing/route.hpp"
#include "stabilizer/guest_model.hpp"
#include "topology/cbt.hpp"
#include "topology/target.hpp"
#include "util/interval_map.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "verify/oracle.hpp"

namespace {

void BM_CbtIntervalOf(benchmark::State& state) {
  const chs::topology::Cbt cbt(1ULL << static_cast<unsigned>(state.range(0)));
  chs::util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cbt.interval_of(rng.next_below(cbt.n())));
  }
}
BENCHMARK(BM_CbtIntervalOf)->Arg(10)->Arg(16)->Arg(20);

void BM_CbtFragments(benchmark::State& state) {
  const chs::topology::Cbt cbt(1ULL << static_cast<unsigned>(state.range(0)));
  chs::util::Rng rng(2);
  for (auto _ : state) {
    auto a = rng.next_below(cbt.n());
    auto b = rng.next_below(cbt.n() + 1);
    if (a > b) std::swap(a, b);
    if (a == b) b = a + 1;
    benchmark::DoNotOptimize(cbt.fragments(a, b));
  }
}
BENCHMARK(BM_CbtFragments)->Arg(10)->Arg(16)->Arg(20);

void BM_CbtCrossingEdges(benchmark::State& state) {
  const chs::topology::Cbt cbt(1ULL << static_cast<unsigned>(state.range(0)));
  chs::util::Rng rng(3);
  for (auto _ : state) {
    auto a = rng.next_below(cbt.n());
    auto b = rng.next_below(cbt.n() + 1);
    if (a > b) std::swap(a, b);
    if (a == b) b = a + 1;
    benchmark::DoNotOptimize(cbt.crossing_edges(a, b));
  }
}
BENCHMARK(BM_CbtCrossingEdges)->Arg(10)->Arg(16)->Arg(20);

void BM_ZipWinner(benchmark::State& state) {
  chs::util::Rng rng(4);
  for (auto _ : state) {
    const auto g = rng.next_below(1 << 20);
    const auto a = rng.next_below(1 << 20);
    auto b = rng.next_below(1 << 20);
    if (b == a) b = a + 1;
    benchmark::DoNotOptimize(chs::avatar::zip_winner(g, a, b));
  }
}
BENCHMARK(BM_ZipWinner);

void BM_IntervalMapAssignFind(benchmark::State& state) {
  chs::util::Rng rng(5);
  for (auto _ : state) {
    chs::util::IntervalMap<std::uint64_t> m;
    for (int i = 0; i < 32; ++i) {
      auto a = rng.next_below(1 << 16);
      auto b = rng.next_below(1 << 16);
      if (a > b) std::swap(a, b);
      m.assign(a, b, i);
    }
    for (int i = 0; i < 64; ++i) {
      benchmark::DoNotOptimize(m.find(rng.next_below(1 << 16)));
    }
  }
}
BENCHMARK(BM_IntervalMapAssignFind);

void BM_GraphAddRemoveEdges(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<chs::graph::NodeId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = i;
  chs::util::Rng rng(6);
  for (auto _ : state) {
    chs::graph::Graph g(ids);
    for (std::size_t i = 0; i < 4 * n; ++i) {
      g.add_edge(rng.next_below(n), rng.next_below(n));
    }
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_GraphAddRemoveEdges)->Arg(256)->Arg(1024);

void BM_TargetAnyKeptIn(benchmark::State& state) {
  // The DONE-prune's range query for the three predicate shapes: constant
  // (chord), closed-form (skiplist), early-exit scan (smallworld).
  const std::uint64_t n = 1ULL << 16;
  const auto target = state.range(0) == 0   ? chs::topology::chord_target()
                      : state.range(0) == 1 ? chs::topology::skiplist_target()
                                            : chs::topology::smallworld_target(7);
  const auto query = target.any_kept_in
                         ? target.any_kept_in
                         : [](std::uint64_t, std::uint64_t, std::uint32_t,
                              std::uint64_t) { return true; };
  chs::util::Rng rng(7);
  for (auto _ : state) {
    auto a = rng.next_below(n);
    auto b = rng.next_below(n + 1);
    if (a > b) std::swap(a, b);
    benchmark::DoNotOptimize(
        query(a, b, static_cast<std::uint32_t>(rng.next_below(15)), n));
  }
}
BENCHMARK(BM_TargetAnyKeptIn)->Arg(0)->Arg(1)->Arg(2);

void BM_HostOf(benchmark::State& state) {
  const std::uint64_t n = 1ULL << 20;
  chs::util::Rng rng(8);
  auto ids = chs::graph::sample_ids(static_cast<std::size_t>(state.range(0)),
                                    n, rng);
  std::sort(ids.begin(), ids.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(chs::avatar::host_of(rng.next_below(n), ids));
  }
}
BENCHMARK(BM_HostOf)->Arg(256)->Arg(4096);

void BM_KeyToGuest(benchmark::State& state) {
  chs::util::Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chs::dht::key_to_guest(rng.next_u64(), 1 << 20));
  }
}
BENCHMARK(BM_KeyToGuest);

void BM_GuestModelRunAll(benchmark::State& state) {
  // The Fig. 1 reference model end to end: O(N log N) work per run.
  const std::uint64_t n = 1ULL << static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    chs::stabilizer::GuestAlgorithm1 model(n);
    benchmark::DoNotOptimize(model.run_all());
  }
}
BENCHMARK(BM_GuestModelRunAll)->Arg(8)->Arg(10)->Arg(12);

// --- engine round loop -----------------------------------------------------

// A converged (quiescent) Avatar(Chord) network. Built once and reused
// across iterations: stepping a converged network changes nothing, so every
// iteration measures the same thing — the fixed per-round cost of the
// engine itself. The default 10k hosts over 16384 guests is the historical
// headline configuration; the scale ladder below pushes the same recipe to
// 100k and 1M hosts.
constexpr std::size_t kQuiescentHosts = 10000;
constexpr std::uint64_t kQuiescentGuests = 16384;

std::uint64_t guests_for(std::size_t hosts) {
  if (hosts == kQuiescentHosts) return kQuiescentGuests;  // headline recipe
  std::uint64_t g = 1;
  while (g < hosts + hosts / 3) g <<= 1;  // next pow2 >= ~1.3x hosts
  return g;
}

std::unique_ptr<chs::core::StabEngine> build_quiescent(std::size_t hosts) {
  using chs::core::StabEngine;
  chs::util::set_log_level(chs::util::LogLevel::kError);
  const std::uint64_t guests = guests_for(hosts);
  chs::util::Rng rng(1);
  auto ids = chs::graph::sample_ids(hosts, guests, rng);
  chs::core::Params p;
  p.n_guests = guests;
  auto slot = chs::core::make_engine(chs::core::scaffold_graph(ids, guests),
                                     p, 1);
  chs::core::install_chord_built_upto(
      *slot, static_cast<std::int32_t>(slot->protocol().num_waves()) - 1,
      &ids);
  slot->run_until(
      [](StabEngine& e) { return e.quiescent_streak() >= 8; }, 5000);
  // Drain the stale-wakeup tail left over from the active phase so the
  // steady state is the true converged cost.
  while (slot->pending_events() != 0) slot->step_round();
  // Unbounded iteration count ahead: stop the per-round degree trace.
  slot->metrics().set_trace_recording(false);
  return slot;
}

chs::core::StabEngine& quiescent_engine(chs::sim::StepMode mode) {
  static std::unique_ptr<chs::core::StabEngine> cache[2];
  auto& slot = cache[mode == chs::sim::StepMode::kActiveSet ? 1 : 0];
  if (!slot) {
    slot = build_quiescent(kQuiescentHosts);
    slot->set_step_mode(mode);
    slot->step_round();  // absorb the wake_all a mode switch performs
  }
  return *slot;
}

// Scale-ladder engines are too large to keep several alive at once (a
// 1M-host engine is GBs), so this cache holds exactly one host count and
// rebuilds on change — register ladder args grouped by host count.
chs::core::StabEngine& scale_engine(std::size_t hosts,
                                    chs::sim::StepMode mode) {
  static std::unique_ptr<chs::core::StabEngine> slot;
  static std::size_t cached_hosts = 0;
  static chs::sim::StepMode cached_mode = chs::sim::StepMode::kActiveSet;
  const bool rebuilt = !slot || cached_hosts != hosts;
  if (rebuilt) {
    slot.reset();  // free the previous ladder rung before building the next
    slot = build_quiescent(hosts);
    cached_hosts = hosts;
  }
  // A fresh engine is in the protocol's preferred mode (kActiveSet for the
  // stabilizer — set in the Engine constructor, not the field default), so
  // the requested mode must be forced after every rebuild: assuming kAll
  // would leave the busy rungs measuring empty active-set rounds.
  if (rebuilt || cached_mode != mode) {
    slot->set_step_mode(mode);
    slot->step_round();  // absorb the wake_all a mode switch performs
    cached_mode = mode;
  }
  return *slot;
}

// Time-per-round on a mostly-quiescent 10k-host network. Arg: 0 = classic
// step-everyone loop, 1 = active-set loop. The stepped_per_round counter is
// the headline: ~n for mode 0, ~0 for mode 1.
void BM_EngineQuiescentRound(benchmark::State& state) {
  const auto mode = state.range(0) == 0 ? chs::sim::StepMode::kAll
                                        : chs::sim::StepMode::kActiveSet;
  auto& eng = quiescent_engine(mode);
  const std::uint64_t stepped0 = eng.metrics().nodes_stepped();
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    eng.step_round();
    ++rounds;
  }
  state.counters["stepped_per_round"] = benchmark::Counter(
      static_cast<double>(eng.metrics().nodes_stepped() - stepped0) /
      static_cast<double>(rounds == 0 ? 1 : rounds));
  state.counters["hosts"] = kQuiescentHosts;
}
BENCHMARK(BM_EngineQuiescentRound)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// Busy-phase round cost vs worker count and host count: StepMode::kAll on
// a converged network steps every host through the full protocol step
// every round. This is a synthetic worst case, not a workload anyone runs:
// real stabilization runs in active-set mode and steps only the hosts with
// work, so the end-to-end rows (bench/e2e: cold_start, churn_recover) are
// the ones that measure it. The rows stay as a fixed full-width load for
// the worker pool. Args: {worker threads, hosts} (1 worker =
// sequential engine). Traces are identical at every worker count; only
// wall clock may differ, and it only improves when physical cores exist
// (BENCH_micro.json records num_cpus — on a 1-vCPU host the sweep measures
// pool overhead instead).
void BM_EngineBusyRound(benchmark::State& state) {
  const std::size_t hosts = static_cast<std::size_t>(state.range(1));
  auto& eng = hosts == kQuiescentHosts
                  ? quiescent_engine(chs::sim::StepMode::kAll)
                  : scale_engine(hosts, chs::sim::StepMode::kAll);
  eng.set_worker_threads(static_cast<std::size_t>(state.range(0)));
  const std::uint64_t stepped0 = eng.metrics().nodes_stepped();
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    eng.step_round();
    ++rounds;
  }
  eng.set_worker_threads(1);
  eng.record_live_bytes();
  state.counters["stepped_per_round"] = benchmark::Counter(
      static_cast<double>(eng.metrics().nodes_stepped() - stepped0) /
      static_cast<double>(rounds == 0 ? 1 : rounds));
  state.counters["hosts"] = static_cast<double>(hosts);
  state.counters["bytes_per_host"] =
      static_cast<double>(eng.metrics().bytes_per_host());
  state.SetLabel("kAll: synthetic worst case");
}
BENCHMARK(BM_EngineBusyRound)
    ->Args({1, 10000})->Args({2, 10000})->Args({4, 10000})->Args({8, 10000})
    ->Args({4, 100000})
    ->Unit(benchmark::kMicrosecond);

// Online invariant oracle (DESIGN.md D8) riding the busy round: StepMode
// kAll steps — and therefore dirties — all 10k hosts every round, so the
// oracle re-checks every host at stride 1: the worst case. Arg: 0 = no
// oracle installed (must match BM_EngineBusyRound/1 — the hook costs one
// untaken branch per round), otherwise the sampling stride. On a quiescent
// active-set network the dirty set is empty and oracle cost is ~zero
// regardless of stride.
void BM_OracleRound(benchmark::State& state) {
  auto& eng = quiescent_engine(chs::sim::StepMode::kAll);
  const std::uint64_t stride = static_cast<std::uint64_t>(state.range(0));
  std::unique_ptr<chs::verify::InvariantOracle> oracle;
  if (stride > 0) {
    oracle = std::make_unique<chs::verify::InvariantOracle>(
        eng, chs::verify::OracleConfig{.stride = stride});
  }
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    eng.step_round();
    ++rounds;
  }
  if (oracle) {
    state.counters["hosts_checked_per_round"] = benchmark::Counter(
        static_cast<double>(oracle->hosts_checked()) /
        static_cast<double>(rounds == 0 ? 1 : rounds));
    if (oracle->violation()) state.SkipWithError("invariant violation");
    oracle->detach();
  }
  state.counters["hosts"] = kQuiescentHosts;
}
BENCHMARK(BM_OracleRound)->Arg(0)->Arg(1)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Telemetry series recorder (DESIGN.md D12) riding the busy round. The
// recorder is pull-based like the oracle: JobRunner samples cumulative
// engine counters after step_round, so arg 0 (no recorder) must match
// BM_OracleRound/0 — the unarmed engine has no telemetry code on the hot
// path at all. Arg > 0 is the sampling stride; stride 1 differentiates
// the engine reading every round (the worst case) and is the overhead the
// CI bench smoke pins.
void BM_ObsRound(benchmark::State& state) {
  auto& eng = quiescent_engine(chs::sim::StepMode::kAll);
  const std::uint64_t stride = static_cast<std::uint64_t>(state.range(0));
  std::optional<chs::obs::SeriesRecorder> rec;
  std::uint64_t t = 0;
  if (stride > 0) {
    rec.emplace(stride, /*cap=*/64);
    rec->prime(chs::obs::engine_reading(eng.metrics()));
  }
  for (auto _ : state) {
    eng.step_round();
    if (rec) rec->on_round(t, chs::obs::engine_reading(eng.metrics()));
    ++t;
  }
  if (rec) {
    state.counters["samples_retained"] =
        static_cast<double>(rec->samples().size());
    state.counters["effective_stride"] =
        static_cast<double>(rec->effective_stride());
  }
  state.counters["hosts"] = kQuiescentHosts;
}
BENCHMARK(BM_ObsRound)->Arg(0)->Arg(1)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Checkpoint/restore (DESIGN.md D9) on the busy 10k-host state: the
// serialization load is 10k full HostStates (finger interval maps
// included), snapshots, RNG streams, calendars, and topology. Checkpointing
// is pull-based — there is no hook in step_round, so the checkpoint-off hot
// path is byte-for-byte the PR 2 engine (the CI bench smoke pins
// BM_EngineBusyRound and BM_OracleRound/0 against drift).
void BM_CheckpointWrite(benchmark::State& state) {
  auto& eng = quiescent_engine(chs::sim::StepMode::kAll);
  std::size_t bytes = 0;
  for (auto _ : state) {
    chs::persist::Writer w(chs::persist::BlobKind::kEngine);
    eng.checkpoint(w);
    bytes = w.bytes().size();
    benchmark::DoNotOptimize(w.bytes().data());
  }
  state.counters["blob_bytes"] = static_cast<double>(bytes);
  state.counters["hosts"] = kQuiescentHosts;
}
BENCHMARK(BM_CheckpointWrite)->Unit(benchmark::kMillisecond);

void BM_RestoreRead(benchmark::State& state) {
  auto& eng = quiescent_engine(chs::sim::StepMode::kAll);
  chs::persist::Writer w(chs::persist::BlobKind::kEngine);
  eng.checkpoint(w);
  const std::vector<std::uint8_t> blob = w.take();
  // Restore target: same recipe, never run (restore overwrites wholesale).
  chs::util::Rng rng(1);
  auto ids = chs::graph::sample_ids(kQuiescentHosts, kQuiescentGuests, rng);
  chs::core::Params p;
  p.n_guests = kQuiescentGuests;
  auto target = chs::core::make_engine(
      chs::core::scaffold_graph(std::move(ids), kQuiescentGuests), p, 1);
  target->metrics().set_trace_recording(false);
  for (auto _ : state) {
    chs::persist::Reader r(blob);
    bool ok = r.expect_header(chs::persist::BlobKind::kEngine).ok;
    ok = ok && target->restore(r).ok;
    if (!ok) state.SkipWithError("restore failed");
    benchmark::DoNotOptimize(target->round());
  }
  state.counters["blob_bytes"] = static_cast<double>(blob.size());
  state.counters["hosts"] = kQuiescentHosts;
}
BENCHMARK(BM_RestoreRead)->Unit(benchmark::kMillisecond);

// Incremental checkpoint (DESIGN.md D10) riding the quiescent active-set
// network: each iteration steps one (empty) round and serializes a delta.
// With nothing stepped, the delta is the fixed framing — engine scalars,
// empty calendars, metrics — not the 10k hosts; blob_bytes vs
// BM_CheckpointWrite's is the payoff the D10 design promises (the CI bench
// smoke asserts >= 10x).
void BM_DeltaCheckpointWrite(benchmark::State& state) {
  auto& eng = quiescent_engine(chs::sim::StepMode::kActiveSet);
  const auto base = eng.checkpoint_blob();  // chain head for the deltas
  std::size_t bytes = 0;
  for (auto _ : state) {
    eng.step_round();
    const auto delta = eng.checkpoint_delta_blob();
    bytes = delta.size();
    benchmark::DoNotOptimize(delta.data());
  }
  state.counters["blob_bytes"] = static_cast<double>(bytes);
  state.counters["base_bytes"] = static_cast<double>(base.size());
  state.counters["hosts"] = kQuiescentHosts;
}
BENCHMARK(BM_DeltaCheckpointWrite)->Unit(benchmark::kMicrosecond);

// Scale ladder (ROADMAP: million-host engine): round cost and resident
// bytes per host at 10k / 100k / 1M hosts, quiescent and busy. Args:
// {0 = busy (StepMode::kAll), 1 = quiescent (kActiveSet); hosts}. Rungs
// are grouped by host count because scale_engine keeps only one alive.
// The 1M rungs take minutes to build and GBs of RAM; CI filters them out
// and they are recorded from the committed BENCH_micro.json runs instead.
void BM_EngineScaleRound(benchmark::State& state) {
  const auto mode = state.range(0) == 0 ? chs::sim::StepMode::kAll
                                        : chs::sim::StepMode::kActiveSet;
  const std::size_t hosts = static_cast<std::size_t>(state.range(1));
  auto& eng = hosts == kQuiescentHosts ? quiescent_engine(mode)
                                       : scale_engine(hosts, mode);
  const std::uint64_t stepped0 = eng.metrics().nodes_stepped();
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    eng.step_round();
    ++rounds;
  }
  eng.record_live_bytes();
  state.counters["stepped_per_round"] = benchmark::Counter(
      static_cast<double>(eng.metrics().nodes_stepped() - stepped0) /
      static_cast<double>(rounds == 0 ? 1 : rounds));
  state.counters["hosts"] = static_cast<double>(hosts);
  state.counters["bytes_per_host"] =
      static_cast<double>(eng.metrics().bytes_per_host());
}
BENCHMARK(BM_EngineScaleRound)
    ->Args({0, 10000})->Args({1, 10000})
    ->Args({0, 100000})->Args({1, 100000})
    ->Args({0, 1000000})->Args({1, 1000000})
    ->Unit(benchmark::kMillisecond);

// Full stabilization from a random tree (active phase): the active set
// still wins while the network is busy, just less dramatically.
void BM_EngineStabilize(benchmark::State& state) {
  const auto mode = state.range(0) == 0 ? chs::sim::StepMode::kAll
                                        : chs::sim::StepMode::kActiveSet;
  chs::util::set_log_level(chs::util::LogLevel::kError);
  std::uint64_t rounds = 0, stepped = 0;
  for (auto _ : state) {
    chs::util::Rng rng(3);
    auto ids = chs::graph::sample_ids(64, 256, rng);
    chs::core::Params p;
    p.n_guests = 256;
    auto eng = chs::core::make_engine(chs::graph::make_random_tree(ids, rng), p, 2);
    eng->set_step_mode(mode);
    const auto res = chs::core::run_to_convergence(*eng, 400000);
    rounds += res.rounds;
    stepped += eng->metrics().nodes_stepped();
  }
  state.counters["rounds"] = benchmark::Counter(
      static_cast<double>(rounds), benchmark::Counter::kAvgIterations);
  state.counters["nodes_stepped"] = benchmark::Counter(
      static_cast<double>(stepped), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_EngineStabilize)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// --- data-plane routing -----------------------------------------------------

// One greedy next-hop decision (routing::next_hop) on the route tables of a
// converged 2048-host, 4096-guest network, the serve workload's shape, for a
// seeded cycle of (host, target) pairs. Arg: 0 = every host usable, 1 = a
// seeded quarter of the hosts unusable, so some decisions reject candidates.
// checks_per_hop counts the usable() calls one decision makes.
void BM_NextHop(benchmark::State& state) {
  struct Fixture {
    std::uint64_t guests = 0;
    std::vector<chs::routing::RouteTable> tables;
    std::vector<std::pair<std::size_t, chs::routing::GuestId>> queries;
    std::vector<bool> down;  // by host id
  };
  static const Fixture fx = [] {
    Fixture f;
    const auto eng = build_quiescent(2048);
    f.guests = eng->protocol().params().n_guests;
    for (chs::graph::NodeId id : eng->graph().ids()) {
      const auto& st = eng->state(id);
      f.tables.push_back({st.lo, st.hi, st.fwd_maps, st.succ});
      if (id >= f.down.size()) f.down.resize(id + 1);
    }
    chs::util::Rng rng(22);
    for (chs::graph::NodeId id : eng->graph().ids()) {
      f.down[id] = rng.next_below(4) == 0;
    }
    for (int i = 0; i < 4096; ++i) {
      f.queries.emplace_back(rng.next_below(f.tables.size()),
                             rng.next_below(f.guests));
    }
    return f;
  }();
  const bool with_down = state.range(0) != 0;
  std::uint64_t checks = 0, hops = 0;
  std::size_t q = 0;
  for (auto _ : state) {
    const auto& [host, target] = fx.queries[q];
    q = q + 1 == fx.queries.size() ? 0 : q + 1;
    const auto next = chs::routing::next_hop(
        fx.tables[host], target, fx.guests, [&](chs::graph::NodeId h) {
          ++checks;
          return !(with_down && fx.down[h]);
        });
    benchmark::DoNotOptimize(next);
    ++hops;
  }
  state.counters["checks_per_hop"] = benchmark::Counter(
      static_cast<double>(checks) / static_cast<double>(hops == 0 ? 1 : hops));
  state.SetItemsProcessed(static_cast<std::int64_t>(hops));
}
BENCHMARK(BM_NextHop)->Arg(0)->Arg(1);

// Campaign fan-out: a fixed 16-job scenario (converged start + a churn
// burst per job) at jobs=1 vs jobs=hardware threads. The report is
// byte-identical at both settings (DESIGN.md D7); wall clock tracks
// physical cores exactly like BM_EngineBusyRound — expect ~none on a
// 1-vCPU host, near-linear on real multicore.
void BM_CampaignFanout(benchmark::State& state) {
  chs::util::set_log_level(chs::util::LogLevel::kError);
  chs::campaign::Scenario sc;
  sc.name = "bench-fanout";
  sc.n_guests = 64;
  sc.host_counts = {12};
  sc.families = {chs::graph::Family::kRandomTree};
  sc.seed_lo = 1;
  sc.seed_hi = 16;  // 16 jobs
  sc.max_rounds = 100000;
  sc.churn_at(0, 2);
  chs::campaign::RunOptions opts;
  opts.jobs = state.range(0) != 0
                  ? std::max(1u, std::thread::hardware_concurrency())
                  : 1;
  std::size_t converged = 0;
  for (auto _ : state) {
    const auto rep = chs::campaign::run_campaign(sc, opts);
    converged = rep.converged_jobs;
    benchmark::DoNotOptimize(rep);
  }
  state.counters["jobs"] = static_cast<double>(sc.num_jobs());
  // Not "threads": that would collide with google-benchmark's built-in
  // per-run field and emit duplicate JSON keys in BENCH_micro.json.
  state.counters["job_threads"] = static_cast<double>(opts.jobs);
  state.counters["converged"] = static_cast<double>(converged);
}
BENCHMARK(BM_CampaignFanout)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_FitPower(benchmark::State& state) {
  std::vector<double> xs, ys;
  chs::util::Rng rng(10);
  for (int i = 1; i <= 64; ++i) {
    xs.push_back(i);
    ys.push_back(static_cast<double>(i) * i * (0.9 + 0.2 * rng.next_double()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(chs::util::fit_power(xs, ys));
  }
}
BENCHMARK(BM_FitPower);

}  // namespace

// Custom main (instead of benchmark_main) so the build type lands in the
// JSON context: every committed BENCH_micro.json must come from a Release
// build — debug numbers are 5-20x off and poison any comparison. The CI
// bench smoke asserts context.build_type == "release".
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("build_type", "release");
#else
  benchmark::AddCustomContext("build_type", "debug");
  std::fprintf(stderr,
               "================================================================\n"
               "WARNING: bench_micro built WITHOUT NDEBUG (debug/assert build).\n"
               "Numbers below are meaningless for comparison; rebuild with\n"
               "-DCMAKE_BUILD_TYPE=Release before recording BENCH_micro.json.\n"
               "================================================================\n");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
