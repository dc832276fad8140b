// E1 — Theorems 2/5: full self-stabilization to Avatar(Chord) from arbitrary
// connected initial configurations converges in O(log² N) rounds in
// expectation.
//
// For each (family, N) we run several seeded instances (n = N/4 hosts,
// randomly-placed ids) as cold-start campaign jobs and report mean/max
// rounds next to the paper's bound shape c·log²N: if the algorithm matches
// the theorem, the rounds/log²N column is flat (bounded by a constant) as N
// grows. Absolute constants are
// implementation-specific (epoch length, grace gaps); the *shape* is the
// claim under test.
#include <cstdio>
#include <cstdlib>

#include "campaign/runner.hpp"
#include "core/experiment.hpp"
#include "util/stats.hpp"
#include "util/bitops.hpp"
#include "util/log.hpp"

using namespace chs;

int main() {
  util::set_log_level(util::LogLevel::kError);
  const bool big = std::getenv("CHS_BENCH_SCALE") != nullptr;
  std::printf("E1: convergence rounds from arbitrary configurations "
              "(Theorems 2/5; bound shape c*log^2 N)\n\n");

  const std::vector<std::uint64_t> sizes =
      big ? std::vector<std::uint64_t>{64, 256, 1024, 4096}
          : std::vector<std::uint64_t>{64, 256, 1024};
  const std::vector<graph::Family> families = {
      graph::Family::kLine, graph::Family::kStar, graph::Family::kRandomTree,
      graph::Family::kConnectedGnp};
  const std::uint64_t seeds = big ? 5 : 3;

  core::Table table({"family", "N", "n", "conv", "rounds(mean)", "rounds(p50)",
                     "rounds(p90)", "rounds(max)", "log^2N", "mean/log^2N",
                     "resets(mean)"});
  // Growth-exponent fit across all families: rounds ~ c * (log N)^alpha;
  // the theorems predict alpha <= 2.
  std::vector<double> fit_logn, fit_rounds;
  for (graph::Family fam : families) {
    for (std::uint64_t n_guests : sizes) {
      campaign::Scenario sc;
      sc.n_guests = n_guests;
      sc.host_counts = {static_cast<std::size_t>(n_guests / 4)};
      sc.families = {fam};
      sc.seed_hi = seeds;
      sc.start = campaign::StartMode::kCold;
      std::vector<double> rounds, resets;
      bool all_ok = true;
      for (const campaign::JobSpec& spec : campaign::expand_jobs(sc)) {
        const campaign::JobResult r = campaign::run_job(sc, spec);
        all_ok = all_ok && r.converged;
        // Only converged runs enter the statistics: a budget-capped run
        // reports the budget, not a convergence time (the conv column
        // flags it).
        if (r.converged) {
          rounds.push_back(static_cast<double>(r.rounds));
          resets.push_back(static_cast<double>(r.resets));
        }
      }
      const auto rs = core::stats_of(rounds);
      const double lg = static_cast<double>(util::ceil_log2(n_guests));
      fit_logn.push_back(lg);
      fit_rounds.push_back(rs.mean);
      table.add_row({graph::family_name(fam), core::Table::fmt(n_guests),
                     core::Table::fmt(n_guests / 4), all_ok ? "yes" : "NO",
                     core::Table::fmt(rs.mean, 0), core::Table::fmt(rs.p50, 0),
                     core::Table::fmt(rs.p90, 0), core::Table::fmt(rs.max, 0),
                     core::Table::fmt(lg * lg, 0),
                     core::Table::fmt(rs.mean / (lg * lg), 1),
                     core::Table::fmt(core::stats_of(resets).mean, 1)});
    }
  }
  table.print();
  const auto fit = util::fit_power(fit_logn, fit_rounds);
  std::printf("\nfit: rounds ~ %.1f * (log N)^%.2f  (R^2=%.3f; theory: "
              "exponent <= 2)\n\n",
              fit.coefficient, fit.exponent, fit.r_squared);
  table.print_csv("e1_convergence");
  return 0;
}
