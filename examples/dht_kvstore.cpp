// A replicated key-value store on a self-stabilized Chord overlay — the
// end-to-end story the paper motivates: stabilize the topology from an
// arbitrary configuration, hand the routing state to the data plane, and
// serve reads through host failures.
//
//   1. 56 hosts wake up wired as a random tree (say, after a datacenter
//      power event) and self-stabilize to Avatar(Chord(512)).
//   2. The campaign runner snapshots the converged routing tables into the
//      KV data plane and stores a small user database, 3-way replicated.
//      Every get is a real routed message over the built host network.
//   3. With the control plane frozen, a fifth of the hosts fail; then every
//      record is read once, and a get that times out fails over to the next
//      replica. Thawing lets the survivors reconverge.
//
// The same experiment as a scenario file: examples/scenarios/kv_failover.scn.
#include <cstdio>

#include "campaign/runner.hpp"
#include "util/log.hpp"

using namespace chs;

int main() {
  util::set_log_level(util::LogLevel::kError);
  const std::size_t n_hosts = 56;
  const std::uint64_t n_users = 64;

  campaign::Scenario sc;
  sc.name = "dht-kvstore";
  sc.n_guests = 512;
  sc.host_counts = {n_hosts};
  sc.families = {graph::Family::kRandomTree};
  sc.seed_lo = sc.seed_hi = 2024;
  sc.max_rounds = 400000;
  sc.series(64, 64);  // a workload reports per series window
  // Round 0: freeze, then fail a fifth of the hosts (their state is wiped,
  // so they drop out of serving). Round 1: read every record once.
  sc.freeze_at(0).fault_at(0, n_hosts / 5).serve(1, 2, n_users).thaw_at(200);
  sc.workload.keys = n_users;
  sc.workload.replicas = 3;
  sc.workload.prefill = n_users;

  const campaign::JobResult r =
      campaign::run_job(sc, campaign::expand_jobs(sc)[0]);
  std::printf("stabilization: converged=%s in %llu rounds (N=%llu, hosts=%zu)\n",
              r.setup_converged ? "yes" : "NO",
              static_cast<unsigned long long>(r.setup_rounds),
              static_cast<unsigned long long>(sc.n_guests), n_hosts);
  std::printf("stored %llu records at 3 replicas each; failed %zu/%zu hosts\n",
              static_cast<unsigned long long>(n_users), n_hosts / 5, n_hosts);
  std::printf(
      "reads after failure: %llu/%llu ok (hits=%llu), %llu timed out "
      "(retries=%llu, p99<=%llu rounds)\n",
      static_cast<unsigned long long>(r.wl_completed),
      static_cast<unsigned long long>(r.wl_issued),
      static_cast<unsigned long long>(r.wl_hits),
      static_cast<unsigned long long>(r.wl_timeouts),
      static_cast<unsigned long long>(r.wl_retries),
      static_cast<unsigned long long>(r.wl_p99));
  std::printf("reconverged after thaw: %s in %llu timeline rounds\n",
              r.converged ? "yes" : "NO",
              static_cast<unsigned long long>(r.rounds));
  // Success: the network healed and every read was settled, either served
  // or counted as a timeout — none went missing.
  return r.converged && r.wl_completed + r.wl_timeouts == r.wl_issued ? 0 : 1;
}
