// E8 — ablations over the design choices DESIGN.md calls out:
//
//   (a) wave pacing: per-guest-hop (paper-faithful round accounting, D2)
//       vs per-host-hop (only inter-host messages cost a round) — how much
//       of the wave time is "virtual" levels inside a host;
//   (b) matching epoch length (epoch_units) — too short starves the
//       poll/grant handshake, too long wastes idle rounds;
//   (c) leader probability — the paper's fair coin vs biased variants.
#include <cstdio>

#include "core/experiment.hpp"
#include "core/network.hpp"
#include "graph/generators.hpp"
#include "util/bitops.hpp"
#include "util/log.hpp"

using namespace chs;

namespace {
core::RunResult run_once(std::uint64_t n_guests, const core::Params& p,
                         std::uint64_t seed) {
  util::Rng rng(seed * 31 + 7);
  auto ids = graph::sample_ids(n_guests / 4, n_guests, rng);
  auto g = graph::make_random_tree(ids, rng);
  core::Params params = p;
  params.n_guests = n_guests;
  auto eng = core::make_engine(std::move(g), params, seed);
  return core::run_to_convergence(*eng, 400000);
}

double mean_rounds(std::uint64_t n_guests, const core::Params& p) {
  std::vector<double> rounds;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto res = run_once(n_guests, p, seed);
    if (res.converged) rounds.push_back(static_cast<double>(res.rounds));
  }
  return core::stats_of(rounds).mean;
}
}  // namespace

int main() {
  util::set_log_level(util::LogLevel::kError);
  std::printf("E8: ablations (wave pacing, epoch length, leader bias)\n\n");
  const std::uint64_t n_guests = 256;

  {
    core::Table t({"wave_pacing", "N", "scaffolded_build_rounds"});
    for (bool per_guest : {true, false}) {
      core::Params p;
      p.n_guests = n_guests;
      p.per_guest_hop = per_guest;
      util::Rng rng(5);
      auto ids = graph::sample_ids(n_guests / 4, n_guests, rng);
      auto eng = core::make_engine(core::scaffold_graph(ids, n_guests), p, 7);
      core::install_legal_cbt(*eng, core::Phase::kChord);
      const auto res = core::run_to_convergence(*eng, 100000);
      t.add_row({per_guest ? "per-guest-hop (paper)" : "per-host-hop",
                 core::Table::fmt(n_guests),
                 res.converged ? core::Table::fmt(res.rounds) : "-"});
    }
    t.print();
    std::printf("\n");
  }

  {
    core::Table t({"epoch_units", "N", "full_convergence_rounds(mean)"});
    for (std::uint32_t units : {4u, 6u, 8u, 12u, 16u}) {
      core::Params p;
      p.epoch_units = units;
      t.add_row({core::Table::fmt(static_cast<std::uint64_t>(units)),
                 core::Table::fmt(n_guests),
                 core::Table::fmt(mean_rounds(n_guests, p), 0)});
    }
    t.print();
    std::printf("\n");
  }

  {
    core::Table t({"leader_prob", "N", "full_convergence_rounds(mean)"});
    for (std::uint32_t prob :
         {16384u /*0.25*/, 32768u /*0.5*/, 49152u /*0.75*/}) {
      core::Params p;
      p.leader_prob_u16 = prob;
      t.add_row({core::Table::fmt(static_cast<double>(prob) / 65536.0, 2),
                 core::Table::fmt(n_guests),
                 core::Table::fmt(mean_rounds(n_guests, p), 0)});
    }
    t.print();
  }
  return 0;
}
