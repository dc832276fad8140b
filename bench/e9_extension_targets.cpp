// E9 — §6 generality of the network-scaffolding pattern: the same scaffold,
// wave engine, and phase machinery instantiated for other targets.
//
//   chord     — the paper's Definition 1 (log N − 1 waves, keep all).
//   bichord   — full finger table (one extra wave, span N/2).
//   hypercube — keep (i, i+2^k) iff bit k of i is clear; the DONE wave
//               prunes the non-hypercube span edges the induction needed.
//   skiplist  — keep (i, i+2^k) iff 2^k | i: deterministic skip list.
//   smallworld— ring + one hash-chosen long-range finger per guest
//               (derandomized Kleinberg wiring).
//
// Each target is built from a scaffolded start and from a random tree; the
// expected shape is the same O(log² N) column regardless of target.
#include <cstdio>

#include "core/experiment.hpp"
#include "core/network.hpp"
#include "graph/generators.hpp"
#include "util/bitops.hpp"
#include "util/log.hpp"

using namespace chs;

int main() {
  util::set_log_level(util::LogLevel::kError);
  std::printf("E9: extension targets via the scaffolding pattern (§6)\n\n");

  core::Table table({"target", "N", "start", "conv", "rounds", "waves",
                     "final_edges"});
  for (const auto& [name, target] :
       std::vector<std::pair<const char*, topology::TargetSpec>>{
           {"chord", topology::chord_target()},
           {"bichord", topology::bichord_target()},
           {"hypercube", topology::hypercube_target()},
           {"skiplist", topology::skiplist_target()},
           {"smallworld", topology::smallworld_target(/*salt=*/21)}}) {
    for (std::uint64_t n_guests : {64ULL, 256ULL, 1024ULL}) {
      for (const char* start : {"scaffold", "random_tree"}) {
        util::Rng rng(n_guests + 77);
        auto ids = graph::sample_ids(n_guests / 4, n_guests, rng);
        core::Params p;
        p.n_guests = n_guests;
        p.target = target;
        std::unique_ptr<core::StabEngine> eng;
        if (!std::string(start).compare("scaffold")) {
          eng = core::make_engine(core::scaffold_graph(ids, n_guests), p, 7);
          core::install_legal_cbt(*eng, core::Phase::kChord);
        } else {
          eng = core::make_engine(graph::make_random_tree(ids, rng), p, 7);
        }
        const auto res = core::run_to_convergence(*eng, 400000);
        table.add_row(
            {name, core::Table::fmt(n_guests), start,
             res.converged ? "yes" : "NO", core::Table::fmt(res.rounds),
             core::Table::fmt(
                 static_cast<std::uint64_t>(eng->protocol().num_waves())),
             core::Table::fmt(
                 static_cast<std::uint64_t>(eng->graph().num_edges()))});
      }
    }
  }
  table.print();
  std::printf("\n");
  table.print_csv("e9_extension_targets");
  return 0;
}
