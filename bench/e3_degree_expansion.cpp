// E3 — Theorems 3/7: the degree expansion (peak degree during convergence
// over max(initial, final) degree) is O(log² N) in expectation; in practice
// it hovers near a small constant because almost every added edge belongs to
// the final configuration.
//
// The star family is the interesting adversary here: its hub starts with
// degree n-1, so the baseline max(initial, final) is large and the expansion
// must stay near 1; the line family starts with degree 2, so any transient
// growth shows up directly.
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
  std::printf("E3: degree expansion during convergence (Theorems 3/7)\n\n");

  const std::vector<std::uint64_t> sizes =
      big ? std::vector<std::uint64_t>{64, 256, 1024, 4096}
          : std::vector<std::uint64_t>{64, 256, 1024};
  const std::vector<graph::Family> families = {
      graph::Family::kLine, graph::Family::kStar, graph::Family::kRandomTree};
  const std::uint64_t seeds = big ? 5 : 3;

  core::Table table({"family", "N", "n", "deg0(max)", "deg_final(max)",
                     "deg_peak(max)", "expansion(mean)", "expansion(max)",
                     "log^2N"});
  std::vector<double> fit_logn, fit_exp;
  for (graph::Family fam : families) {
    for (std::uint64_t n_guests : sizes) {
      campaign::Scenario sc;
      sc.n_guests = n_guests;
      sc.host_counts = {static_cast<std::size_t>(n_guests / 4)};
      sc.families = {fam};
      sc.seed_hi = seeds;
      sc.start = campaign::StartMode::kCold;
      std::vector<double> exps;
      std::size_t d0 = 0, df = 0, dp = 0;
      for (const campaign::JobSpec& spec : campaign::expand_jobs(sc)) {
        campaign::JobRunner job(sc, spec);
        job.run();
        const campaign::JobResult r = job.result();
        exps.push_back(r.degree_expansion);
        d0 = std::max(d0, job.engine().metrics().initial_max_degree());
        df = std::max(df, job.engine().graph().max_degree());
        dp = std::max(dp, r.peak_degree);
      }
      const auto es = core::stats_of(exps);
      const double lg = static_cast<double>(util::ceil_log2(n_guests));
      fit_logn.push_back(lg);
      fit_exp.push_back(es.mean);
      table.add_row({graph::family_name(fam), core::Table::fmt(n_guests),
                     core::Table::fmt(n_guests / 4),
                     core::Table::fmt(static_cast<std::uint64_t>(d0)),
                     core::Table::fmt(static_cast<std::uint64_t>(df)),
                     core::Table::fmt(static_cast<std::uint64_t>(dp)),
                     core::Table::fmt(es.mean, 2), core::Table::fmt(es.max, 2),
                     core::Table::fmt(lg * lg, 0)});
    }
  }
  table.print();
  const auto fit = util::fit_power(fit_logn, fit_exp);
  std::printf("\nfit: expansion ~ %.2f * (log N)^%.2f  (R^2=%.3f; theory: "
              "exponent <= 2, measured near 0 because added edges are final "
              "edges)\n\n",
              fit.coefficient, fit.exponent, fit.r_squared);
  table.print_csv("e3_degree_expansion");
  return 0;
}
