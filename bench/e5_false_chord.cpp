// E5 — Lemma 4: a "false Chord" phase — nodes that believe, based on local
// state, that they are building Chord from a correct scaffold when the
// global configuration is not a scaffolded one — can only grow any node's
// degree by a factor of at most 2 before every node has fallen back to the
// Avatar(Cbt) algorithm.
//
// Adversarial setup: a *legal* Avatar(Cbt) cluster over all-but-one hosts,
// put mid-build at wave k (every local scaffolded check passes), plus one
// foreign singleton host wired to a single member. Locally only that member
// can notice the extra neighbor; everyone else keeps executing MakeFinger
// waves until the phase-CBT infection reaches them. Measured: rounds until
// all hosts run CBT, and the global peak-degree growth factor meanwhile.
#include <algorithm>
#include <cstdio>
#include <map>

#include "core/experiment.hpp"
#include "core/network.hpp"
#include "graph/generators.hpp"
#include "util/bitops.hpp"
#include "util/log.hpp"

using namespace chs;
using core::StabEngine;
using stabilizer::Phase;

namespace {
bool all_cbt(StabEngine& eng) {
  for (auto id : eng.graph().ids()) {
    if (eng.state(id).phase != Phase::kCbt) return false;
  }
  return true;
}
}  // namespace

int main() {
  util::set_log_level(util::LogLevel::kError);
  std::printf("E5: false-Chord degree growth (Lemma 4)\n\n");
  core::Table table({"N", "n", "wave_k", "fallback_rounds", "2(logN+1)",
                     "peak_growth_factor"});

  for (std::uint64_t n_guests : {64ULL, 256ULL, 1024ULL}) {
    for (std::int32_t k : {0, 2}) {
      const std::size_t n_hosts = static_cast<std::size_t>(n_guests / 4);
      util::Rng rng(n_guests + static_cast<std::uint64_t>(k));
      auto all = graph::sample_ids(n_hosts + 1, n_guests, rng);
      const graph::NodeId intruder = all[all.size() / 3];
      std::vector<graph::NodeId> members;
      for (graph::NodeId id : all) {
        if (id != intruder) members.push_back(id);
      }

      // Member scaffold plus one edge to the foreign singleton.
      graph::Graph g(all);
      for (const auto& [a, b] :
           core::scaffold_graph(members, n_guests).edge_list()) {
        g.add_edge(a, b);
      }
      g.add_edge(intruder, members[members.size() / 2]);

      core::Params p;
      p.n_guests = n_guests;
      auto eng = core::make_engine(std::move(g), p, 11);
      core::install_chord_built_upto(*eng, k, &members);
      // The intruder keeps the default singleton state from init, but its
      // published view must be fresh.
      eng->republish();

      const std::size_t peak0 = eng->graph().max_degree();
      const auto [rounds, ok] =
          eng->run_until([](StabEngine& e) { return all_cbt(e); }, 4000);
      const double factor =
          static_cast<double>(eng->metrics().peak_max_degree()) /
          static_cast<double>(std::max<std::size_t>(1, peak0));

      table.add_row({core::Table::fmt(n_guests),
                     core::Table::fmt(static_cast<std::uint64_t>(n_hosts)),
                     core::Table::fmt(static_cast<std::uint64_t>(k)),
                     ok ? core::Table::fmt(rounds) : "-",
                     core::Table::fmt(util::pif_wave_round_bound(n_guests)),
                     core::Table::fmt(factor, 2)});
    }
  }
  table.print();
  std::printf("\nLemma 4 predicts peak_growth_factor <= 2 and fallback within "
              "O(log N) rounds.\n");
  table.print_csv("e5_false_chord");
  return 0;
}
