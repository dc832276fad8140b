// Churn recovery: the self-stabilization guarantee in action.
//
// A converged Avatar(Chord) network is repeatedly perturbed — a host
// "leaves and rejoins" (all its edges are torn down except one fresh link,
// its state is wiped), or a batch of random edges is injected — and the
// network re-stabilizes on its own every time. This is exactly the paper's
// promise: a correct topology is restored after *any* transient fault as
// long as the network stays connected.
#include <cstdio>
#include <cstdlib>

#include "core/churn.hpp"
#include "core/network.hpp"
#include "graph/generators.hpp"

using namespace chs;

int main(int argc, char** argv) {
  const std::uint64_t n_guests =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 256;
  const std::size_t n_hosts = n_guests / 8;
  util::Rng rng(42);
  auto ids = graph::sample_ids(n_hosts, n_guests, rng);

  core::Params params;
  params.n_guests = n_guests;
  auto eng = core::make_engine(core::scaffold_graph(ids, n_guests), params, 3);
  core::install_legal_cbt(*eng, core::Phase::kChord);
  auto res = core::run_to_convergence(*eng, 100000);
  std::printf("initial build: converged=%d after %llu rounds\n", res.converged,
              static_cast<unsigned long long>(res.rounds));
  if (!res.converged) return 1;

  for (int episode = 1; episode <= 3; ++episode) {
    // Pick a victim and an anchor it rejoins through.
    const graph::NodeId victim = ids[rng.next_below(ids.size())];
    graph::NodeId anchor = victim;
    while (anchor == victim) anchor = ids[rng.next_below(ids.size())];
    core::churn_host(*eng, victim, anchor);

    // Plus some stray edges, as a messy fault would leave behind.
    for (int extra = 0; extra < 3; ++extra) {
      const graph::NodeId a = ids[rng.next_below(ids.size())];
      const graph::NodeId b = ids[rng.next_below(ids.size())];
      if (a != b) eng->inject_edge(a, b);
    }
    eng->republish();

    const std::uint64_t before = eng->round();
    const auto rerun = core::run_to_convergence(*eng, 400000);
    std::printf(
        "episode %d: host %llu churned through %llu (+3 stray edges) — "
        "re-converged=%d after %llu rounds\n",
        episode, static_cast<unsigned long long>(victim),
        static_cast<unsigned long long>(anchor), rerun.converged,
        static_cast<unsigned long long>(eng->round() - before));
    if (!rerun.converged) return 1;
  }
  std::printf("all churn episodes recovered — the network is self-stabilizing\n");
  return 0;
}
