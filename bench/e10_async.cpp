// E10 — beyond the paper (§7 future work): stabilization under bounded
// message asynchrony. Messages are delayed uniformly in [1, d] rounds and
// all protocol budgets stretch by d. The interesting shape: convergence
// time grows roughly linearly in d (every wave and epoch is d× longer) but
// stays polylog in N — asynchrony costs a constant factor, not a new
// asymptotic term.
#include <cstdio>

#include "core/experiment.hpp"
#include "core/network.hpp"
#include "graph/generators.hpp"
#include "util/bitops.hpp"
#include "util/log.hpp"

using namespace chs;

int main() {
  util::set_log_level(util::LogLevel::kError);
  std::printf("E10: bounded asynchrony (message delay uniform in [1, d])\n\n");
  core::Table table({"d", "N", "conv", "rounds(mean)", "rounds/d",
                     "degree_expansion(mean)", "stepped_frac(mean)"});
  for (std::uint32_t d : {1u, 2u, 3u, 4u}) {
    for (std::uint64_t n_guests : {64ULL, 256ULL}) {
      std::vector<double> rounds, exps, stepped;
      bool all_ok = true;
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        util::Rng rng(seed * 41);
        auto ids = graph::sample_ids(n_guests / 4, n_guests, rng);
        core::Params p;
        p.n_guests = n_guests;
        p.delay_slack = d;
        auto eng =
            core::make_engine(graph::make_random_tree(ids, rng), p, seed);
        eng->set_max_message_delay(d);
        const auto res = core::run_to_convergence(*eng, 2000000);
        all_ok = all_ok && res.converged;
        rounds.push_back(static_cast<double>(res.rounds));
        exps.push_back(res.degree_expansion);
        // Fraction of node-steps the active-set loop actually executed,
        // relative to the classic step-everyone loop. Longer delays mean
        // more idle waiting — exactly where skipping quiescent nodes pays.
        stepped.push_back(static_cast<double>(eng->metrics().nodes_stepped()) /
                          (static_cast<double>(eng->metrics().rounds()) *
                           static_cast<double>(ids.size())));
      }
      const auto rs = core::stats_of(rounds);
      table.add_row({core::Table::fmt(static_cast<std::uint64_t>(d)),
                     core::Table::fmt(n_guests), all_ok ? "yes" : "NO",
                     core::Table::fmt(rs.mean, 0),
                     core::Table::fmt(rs.mean / d, 0),
                     core::Table::fmt(core::stats_of(exps).mean, 2),
                     core::Table::fmt(core::stats_of(stepped).mean, 2)});
    }
  }
  table.print();
  std::printf("\n");
  table.print_csv("e10_async");
  return 0;
}
