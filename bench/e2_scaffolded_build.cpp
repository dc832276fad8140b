// E2 — Lemma 3: starting from the correct Avatar(Cbt) scaffold with
// phase = CHORD (configuration G0), Algorithm 1 converges to Avatar(Chord)
// in O(log² N) rounds: log N − 1 MakeFinger waves of at most 2(log N + 1)
// rounds each, plus the DONE wave and the serialization grace.
//
// The table reports measured rounds against the explicit wave-sum bound,
// checks that not a single detector reset fires during a clean build (the
// scaffolded predicate never misfires on a legal execution), and runs the
// guest-granular Fig. 1 reference model (stabilizer/guest_model.hpp) beside
// the host implementation: fig1_rounds is the literal pseudocode's round
// count, whose every wave is <= 2(log N + 1) by construction.
#include <cstdio>
#include <cstdlib>

#include "core/experiment.hpp"
#include "core/network.hpp"
#include "stabilizer/guest_model.hpp"
#include "graph/generators.hpp"
#include "util/bitops.hpp"
#include "util/log.hpp"

using namespace chs;

int main() {
  util::set_log_level(util::LogLevel::kError);
  const bool big = std::getenv("CHS_BENCH_SCALE") != nullptr;
  std::printf("E2: scaffolded Chord construction (Lemma 3)\n\n");

  std::vector<std::uint64_t> sizes{64, 256, 1024, 4096};
  if (big) {
    sizes.push_back(16384);
    sizes.push_back(65536);
  }

  core::Table table({"N", "n", "conv", "rounds", "waves", "bound", "rounds/bound",
                     "fig1_rounds", "resets", "deg_expansion"});
  for (std::uint64_t n_guests : sizes) {
    const std::size_t n_hosts = static_cast<std::size_t>(n_guests / 4);
    util::Rng rng(n_guests ^ 0xabcdef);
    auto ids = graph::sample_ids(n_hosts, n_guests, rng);
    core::Params p;
    p.n_guests = n_guests;
    auto eng = core::make_engine(core::scaffold_graph(ids, n_guests), p, 7);
    core::install_legal_cbt(*eng, core::Phase::kChord);
    const auto res = core::run_to_convergence(*eng, 100000);

    const std::uint64_t lg = util::ceil_log2(n_guests);
    const std::uint64_t waves = eng->protocol().num_waves() + 1;  // + DONE
    const std::uint64_t bound =
        waves * (util::pif_wave_round_bound(n_guests) +
                 core::Params{}.inter_wave_grace + 2);
    stabilizer::GuestAlgorithm1 fig1(n_guests);
    const std::uint64_t fig1_rounds = fig1.run_all();
    table.add_row({core::Table::fmt(n_guests), core::Table::fmt(static_cast<std::uint64_t>(n_hosts)),
                   res.converged ? "yes" : "NO", core::Table::fmt(res.rounds),
                   core::Table::fmt(waves), core::Table::fmt(bound),
                   core::Table::fmt(static_cast<double>(res.rounds) /
                                        static_cast<double>(bound),
                                    2),
                   core::Table::fmt(fig1_rounds),
                   core::Table::fmt(res.total_resets),
                   core::Table::fmt(res.degree_expansion, 2)});
    (void)lg;
  }
  table.print();
  std::printf("\n");
  table.print_csv("e2_scaffolded_build");
  return 0;
}
