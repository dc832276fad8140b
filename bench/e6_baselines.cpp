// E6 — the comparison that motivates the paper (§1, §4.1, §6): three ways to
// build the same robust topology self-stabilizingly.
//
//   scaffolding — this paper: polylog time AND polylog degree expansion.
//   TCF [4]     — fast (clique in O(log diameter)), but Θ(n) peak degree.
//   linear [13,15] — Re-Chord-style line scaffold: low degree, but the line
//                 itself needs Θ(n) rounds from high-diameter configurations.
//   ideal       — §4.1's naive "compute your ideal neighborhood every round"
//                 pattern: fast on benign configurations but with a
//                 data-dependent, near-linear transient degree, and no
//                 stabilization guarantee at all for non-ring-preserving
//                 targets (see tests/test_baselines.cpp).
//
// Expected shape: TCF's and ideal's peak degree columns grow linearly with n
// while the other two stay polylog; the linear baseline's rounds column grows
// linearly with n while the other two stay polylog. Crossovers: TCF/ideal win
// on raw time, lose on space for every n; linear is competitive only at tiny
// n; scaffolding alone is polylog in both columns.
#include <cstdio>
#include <cstdlib>

#include "baselines/ideal.hpp"
#include "baselines/linear.hpp"
#include "baselines/tcf.hpp"
#include "campaign/runner.hpp"
#include "core/experiment.hpp"
#include "graph/generators.hpp"
#include "util/bitops.hpp"
#include "util/log.hpp"

using namespace chs;

int main() {
  util::set_log_level(util::LogLevel::kError);
  const bool big = std::getenv("CHS_BENCH_SCALE") != nullptr;
  std::printf("E6: scaffolding vs TCF vs linear scaffold vs ideal-neighborhood\n\n");

  const std::vector<std::uint64_t> sizes =
      big ? std::vector<std::uint64_t>{64, 256, 1024, 4096}
          : std::vector<std::uint64_t>{64, 256, 1024};
  const graph::Family fam = graph::Family::kLine;  // high diameter: the
                                                   // adversarial case for
                                                   // the linear scaffold

  core::Table table({"algorithm", "N", "n", "conv", "rounds", "peak_degree",
                     "degree_expansion"});
  for (std::uint64_t n_guests : sizes) {
    const std::size_t n_hosts = static_cast<std::size_t>(n_guests / 4);
    util::Rng rng(n_guests * 3 + 1);
    auto ids = graph::sample_ids(n_hosts, n_guests, rng);

    {  // scaffolding (this paper): one cold-start campaign job, seed 1
      campaign::Scenario sc;
      sc.n_guests = n_guests;
      sc.host_counts = {n_hosts};
      sc.families = {fam};
      sc.start = campaign::StartMode::kCold;
      const campaign::JobResult r =
          campaign::run_job(sc, campaign::expand_jobs(sc).front());
      table.add_row({"scaffolding", core::Table::fmt(n_guests),
                     core::Table::fmt(static_cast<std::uint64_t>(n_hosts)),
                     r.converged ? "yes" : "NO", core::Table::fmt(r.rounds),
                     core::Table::fmt(static_cast<std::uint64_t>(r.peak_degree)),
                     core::Table::fmt(r.degree_expansion, 2)});
    }
    {  // TCF
      util::Rng r2(1);
      const auto res = baselines::run_tcf(graph::make_family(fam, ids, r2),
                                          topology::chord_target(), n_guests,
                                          5000, 1);
      table.add_row({"tcf", core::Table::fmt(n_guests),
                     core::Table::fmt(static_cast<std::uint64_t>(n_hosts)),
                     res.converged ? "yes" : "NO", core::Table::fmt(res.rounds),
                     core::Table::fmt(static_cast<std::uint64_t>(res.peak_max_degree)),
                     core::Table::fmt(res.degree_expansion, 2)});
    }
    {  // linear scaffold: same initial family; note its target is the
       // rank-line + doubled fingers rather than Avatar(Chord), which only
       // helps it (smaller topology, no guest space).
      util::Rng r3(2);
      // A line initial configuration is already sorted; shuffle-ish start:
      // use a random tree to exercise linearization.
      auto g = graph::make_family(graph::Family::kRandomTree, ids, r3);
      const auto res = baselines::run_linear(std::move(g), 400000, 1);
      table.add_row({"linear", core::Table::fmt(n_guests),
                     core::Table::fmt(static_cast<std::uint64_t>(n_hosts)),
                     res.converged ? "yes" : "NO", core::Table::fmt(res.rounds),
                     core::Table::fmt(static_cast<std::uint64_t>(res.peak_max_degree)),
                     core::Table::fmt(res.degree_expansion, 2)});
    }
    {  // ideal-neighborhood (§4.1 strawman)
      util::Rng r4(3);
      auto g = graph::make_family(graph::Family::kRandomTree, ids, r4);
      const auto res = baselines::run_ideal(std::move(g),
                                            topology::chord_target(), n_guests,
                                            100000, 1);
      table.add_row({"ideal", core::Table::fmt(n_guests),
                     core::Table::fmt(static_cast<std::uint64_t>(n_hosts)),
                     res.converged ? "yes" : "NO", core::Table::fmt(res.rounds),
                     core::Table::fmt(static_cast<std::uint64_t>(res.peak_max_degree)),
                     core::Table::fmt(res.degree_expansion, 2)});
    }
  }
  table.print();
  std::printf("\n");
  table.print_csv("e6_baselines");
  return 0;
}
