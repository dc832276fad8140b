// E7 — the paper's robustness motivation (§1, §4.2): the finished
// Avatar(Chord) supports O(log N)-hop greedy routing and keeps almost all
// pairs reachable under random node failures, while the bare Cbt scaffold —
// a tree — shatters (every internal node is a cut vertex). Two more views of
// the same claim: forwarding congestion (the scaffold funnels half of all
// routes through the top of the tree) and end-to-end read availability of a
// replicated KV store running in-band over the built overlay, measured by
// the campaign runner's open-loop KV workload.
#include <cstdio>
#include <cstdlib>

#include "campaign/runner.hpp"
#include "core/experiment.hpp"
#include "graph/generators.hpp"
#include "routing/lookup.hpp"
#include "util/bitops.hpp"
#include "util/log.hpp"

using namespace chs;

int main() {
  util::set_log_level(util::LogLevel::kError);
  const bool big = std::getenv("CHS_BENCH_SCALE") != nullptr;
  std::printf("E7a: greedy lookup hops on Chord(N) (guest level)\n\n");

  std::vector<std::uint64_t> sizes{64, 256, 1024, 4096};
  if (big) sizes.push_back(65536);

  core::Table hops({"N", "mean_hops", "max_hops", "logN", "max/logN"});
  for (std::uint64_t n : sizes) {
    util::Rng rng(3);
    const auto stats =
        routing::lookup_stats(topology::chord_target(), n, {}, 2000, rng);
    const double lg = static_cast<double>(util::ceil_log2(n));
    hops.add_row({core::Table::fmt(n), core::Table::fmt(stats.mean_guest_hops, 2),
                  core::Table::fmt(stats.max_guest_hops),
                  core::Table::fmt(lg, 0),
                  core::Table::fmt(static_cast<double>(stats.max_guest_hops) / lg, 2)});
  }
  hops.print();

  std::printf("\nE7b: pairwise reachability after random host failures "
              "(Chord vs bare Cbt host graphs, n=128 hosts, N=1024)\n\n");
  util::Rng rng(17);
  auto ids = graph::sample_ids(128, 1024, rng);
  const auto points = routing::robustness_sweep(
      ids, 1024, {0.0, 0.05, 0.1, 0.2, 0.3, 0.4}, 5, rng);
  core::Table rob({"failed_frac", "chord_reach", "cbt_reach"});
  for (const auto& pt : points) {
    rob.add_row({core::Table::fmt(pt.failed_fraction, 2),
                 core::Table::fmt(pt.chord_reachability, 3),
                 core::Table::fmt(pt.cbt_reachability, 3)});
  }
  rob.print();

  std::printf("\nE7c: lookup success under failures (guest level, N=1024)\n\n");
  core::Table surv({"failed_frac", "success_rate", "mean_hops"});
  for (double frac : {0.0, 0.1, 0.2, 0.3}) {
    std::vector<bool> alive(1024, true);
    util::Rng r2(23);
    for (std::size_t killed = 0;
         killed < static_cast<std::size_t>(frac * 1024);) {
      const std::size_t v = r2.next_below(1024);
      if (alive[v]) {
        alive[v] = false;
        ++killed;
      }
    }
    const auto stats = routing::lookup_stats(topology::chord_target(), 1024,
                                             {}, 2000, r2, &alive);
    surv.add_row({core::Table::fmt(frac, 2),
                  core::Table::fmt(stats.success_rate, 3),
                  core::Table::fmt(stats.mean_guest_hops, 2)});
  }
  surv.print();

  std::printf("\nE7d: forwarding congestion under uniform lookups (guest "
              "level; imbalance = hottest load / mean load)\n\n");
  core::Table cong({"N", "chord_imbalance", "cbt_imbalance", "cbt_hot_depth"});
  for (std::uint64_t n : {256ULL, 1024ULL, 4096ULL}) {
    std::vector<graph::NodeId> dense(n);
    for (std::uint64_t i = 0; i < n; ++i) dense[i] = i;
    util::Rng r3(7), r4(7);
    const auto chord_c = routing::target_congestion(topology::chord_target(),
                                                    n, dense, 4000, r3);
    const auto cbt_c = routing::cbt_congestion(n, dense, 4000, r4);
    cong.add_row(
        {core::Table::fmt(n), core::Table::fmt(chord_c.imbalance, 2),
         core::Table::fmt(cbt_c.imbalance, 2),
         core::Table::fmt(static_cast<std::uint64_t>(
             topology::Cbt(n).depth_of(cbt_c.hottest)))});
  }
  cong.print();

  // E7e is examples/scenarios/kv_failover.scn swept over replicas and
  // fault counts: freeze the converged network, wipe `failed` of the 48
  // hosts (about 10/20/30%), then issue 64 gets at once against 64
  // prefilled keys and let the open-loop KV client fail over. Gets start
  // at round 1 so neighbours already see the victims' down flags.
  std::printf("\nE7e: replicated KV reads after host failures (in-band "
              "data plane, N=512, 48 hosts, 64 gets per seed, seeds 1-3)\n\n");
  core::Table kvt(
      {"replicas", "failed", "issued", "hits", "retried", "timeouts"});
  for (std::uint32_t replicas : {1u, 2u, 3u}) {
    for (std::uint64_t failed : {4u, 9u, 14u}) {
      campaign::Scenario sc;
      sc.name = "e7e";
      sc.n_guests = 512;
      sc.host_counts = {48};
      sc.seed_lo = 1;
      sc.seed_hi = 3;
      sc.max_rounds = 20000;
      sc.series(64, 64);  // a workload reports per series window
      sc.freeze_at(0).fault_at(0, failed).serve(1, 2, 64).thaw_at(200);
      sc.workload.keys = 64;
      sc.workload.replicas = replicas;
      sc.workload.prefill = 64;
      const auto report = campaign::run_campaign(sc);
      std::uint64_t issued = 0, hits = 0, retried = 0, timeouts = 0;
      for (const auto& r : report.results) {
        issued += r.wl_issued;
        hits += r.wl_hits;
        retried += r.wl_retries;
        timeouts += r.wl_timeouts;
      }
      kvt.add_row({core::Table::fmt(static_cast<std::uint64_t>(replicas)),
                   core::Table::fmt(failed), core::Table::fmt(issued),
                   core::Table::fmt(hits), core::Table::fmt(retried),
                   core::Table::fmt(timeouts)});
    }
  }
  kvt.print();

  std::printf("\n");
  hops.print_csv("e7a_hops");
  rob.print_csv("e7b_robustness");
  surv.print_csv("e7c_survival");
  cong.print_csv("e7d_congestion");
  kvt.print_csv("e7e_kv_failover");
  return 0;
}
