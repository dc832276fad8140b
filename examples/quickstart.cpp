// Quickstart: build a self-stabilizing Avatar(Chord) network from an
// arbitrary connected topology and watch it converge.
//
//   $ ./quickstart [n_hosts] [N] [seed]
//
// The library's public API in four steps:
//   1. pick host ids in [0, N) and any weakly-connected initial graph,
//   2. make_engine(initial_graph, Params{N}, seed),
//   3. step rounds (or run_to_convergence) — each host runs the paper's
//      protocol: detect faults, build the Cbt scaffold by cluster merging,
//      then grow Chord fingers over it with PIF waves,
//   4. query the result: legality, degrees, routing.
//
// One engine knob matters at scale: eng->set_worker_threads(k) shards the
// busy-phase round work across k threads, with traces bit for bit those of
// one thread (DESIGN.md D6).
#include <cstdio>
#include <cstdlib>

#include "core/network.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "routing/lookup.hpp"
#include "util/bitops.hpp"

using namespace chs;

int main(int argc, char** argv) {
  const std::size_t n_hosts = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 48;
  const std::uint64_t n_guests =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 256;
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;

  std::printf("Avatar(Chord) quickstart: %zu hosts, guest space N = %llu\n\n",
              n_hosts, static_cast<unsigned long long>(n_guests));

  // 1. Arbitrary initial configuration: a random tree over random ids.
  util::Rng rng(seed);
  auto ids = graph::sample_ids(n_hosts, n_guests, rng);
  graph::Graph initial = graph::make_random_tree(ids, rng);
  std::printf("initial topology: random tree, %zu edges, diameter %llu, "
              "max degree %zu\n",
              initial.num_edges(),
              static_cast<unsigned long long>(graph::diameter(initial)),
              initial.max_degree());

  // 2. Engine.
  core::Params params;
  params.n_guests = n_guests;
  auto eng = core::make_engine(std::move(initial), params, seed);

  // 3. Run, reporting progress at milestones.
  bool single_cluster_seen = false;
  std::uint64_t single_cluster_round = 0;
  const auto one_cluster = [&] {
    const auto cluster = eng->state(eng->graph().ids()[0]).cluster;
    for (graph::NodeId id : eng->graph().ids()) {
      if (eng->state(id).cluster != cluster) return false;
    }
    return true;
  };
  while (eng->round() < 400000 && !core::is_converged(*eng)) {
    eng->step_round();
    if (!single_cluster_seen && one_cluster()) {
      single_cluster_seen = true;
      single_cluster_round = eng->round();
    }
  }

  if (!core::is_converged(*eng)) {
    std::printf("did NOT converge within the budget\n");
    return 1;
  }

  // 4. Results.
  std::printf("scaffold complete (single Avatar(Cbt) cluster) after %llu "
              "rounds\n",
              static_cast<unsigned long long>(single_cluster_round));
  std::printf("converged to legal Avatar(Chord) after %llu rounds "
              "(paper bound shape: c*log^2 N = c*%u)\n",
              static_cast<unsigned long long>(eng->round()),
              util::ceil_log2(n_guests) * util::ceil_log2(n_guests));
  std::printf("degree expansion during convergence: %.2f (Theorem 3: "
              "O(log^2 N))\n",
              eng->metrics().degree_expansion(eng->graph()));
  std::printf("final host graph: %zu edges, max degree %zu\n",
              eng->graph().num_edges(), eng->graph().max_degree());

  util::Rng route_rng(7);
  const auto stats = routing::lookup_stats(params.target, n_guests,
                                           eng->graph().ids(), 500, route_rng);
  std::printf("greedy lookups: mean %.2f guest hops (%.2f host hops), "
              "max %llu — log N = %u\n",
              stats.mean_guest_hops, stats.mean_host_hops,
              static_cast<unsigned long long>(stats.max_guest_hops),
              util::ceil_log2(n_guests));
  return 0;
}
