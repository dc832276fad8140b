// E4 — Lemmas 1-2: if the configuration is neither a legal Avatar(Chord)
// nor a scaffolded Chord configuration, then within O(log N) rounds every
// node is executing the Avatar(Cbt) algorithm (phase = CBT).
//
// Corruption modes applied to a fully converged (phase DONE, silent)
// network:
//   range     — one host's responsible range is truncated,
//   wave      — one host's wave counter is rolled back by 2,
//   edge_add  — a random non-topology edge is injected,
//   edge_del  — a random finger host edge is removed,
//   cluster   — one host claims a different cluster root.
// Measured: rounds until every host has phase CBT ("infected"), against the
// paper's 2(log N + 1) bound (plus the tolerance-window slack the
// implementation grants in-flight waves).
#include <cstdio>
#include <cstring>

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

std::unique_ptr<StabEngine> converged_engine(std::uint64_t n_guests,
                                             std::size_t n_hosts,
                                             std::uint64_t seed) {
  util::Rng rng(seed * 1000 + 5);
  auto ids = graph::sample_ids(n_hosts, n_guests, rng);
  core::Params p;
  p.n_guests = n_guests;
  auto eng = core::make_engine(core::scaffold_graph(ids, n_guests), p, seed);
  core::install_legal_cbt(*eng, Phase::kChord);
  const auto res = core::run_to_convergence(*eng, 100000);
  CHS_CHECK_MSG(res.converged, "setup must converge");
  return eng;
}

void corrupt(StabEngine& eng, const char* mode, util::Rng& rng) {
  const auto& ids = eng.graph().ids();
  const graph::NodeId victim = ids[rng.next_below(ids.size())];
  auto& st = eng.state_mut(victim);
  if (!std::strcmp(mode, "range")) {
    st.hi = std::max(st.lo + 1, st.hi - 1);
  } else if (!std::strcmp(mode, "wave")) {
    st.wave_k = std::max(-1, st.wave_k - 2);
  } else if (!std::strcmp(mode, "edge_add")) {
    for (int tries = 0; tries < 64; ++tries) {
      const graph::NodeId other = ids[rng.next_below(ids.size())];
      if (other != victim && !eng.graph().has_edge(victim, other)) {
        eng.inject_edge(victim, other);
        break;
      }
    }
  } else if (!std::strcmp(mode, "edge_del")) {
    const auto& nbrs = eng.graph().neighbors(victim);
    if (!nbrs.empty()) {
      eng.inject_edge_removal(victim, nbrs[rng.next_below(nbrs.size())]);
    }
  } else if (!std::strcmp(mode, "cluster")) {
    st.cluster = victim;  // claim to be a root (wrong unless it hosts m0)
  }
  eng.republish();
}

}  // namespace

int main() {
  util::set_log_level(util::LogLevel::kError);
  std::printf("E4: detection latency — rounds until all hosts run the "
              "Avatar(Cbt) algorithm (Lemmas 1-2)\n\n");
  const std::vector<std::uint64_t> sizes{64, 256, 1024};
  const std::vector<const char*> modes{"range", "wave", "edge_add", "edge_del",
                                       "cluster"};

  core::Table table({"corruption", "N", "detect_rounds(mean)",
                     "detect_rounds(max)", "2(logN+1)", "max/bound"});
  for (const char* mode : modes) {
    for (std::uint64_t n_guests : sizes) {
      std::vector<double> detect;
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        auto eng = converged_engine(n_guests, n_guests / 4, seed);
        util::Rng rng(seed);
        corrupt(*eng, mode, rng);
        const auto [rounds, ok] =
            eng->run_until([](StabEngine& e) { return all_cbt(e); }, 4000);
        detect.push_back(ok ? static_cast<double>(rounds) : -1.0);
      }
      const auto ds = core::stats_of(detect);
      const double bound =
          static_cast<double>(util::pif_wave_round_bound(n_guests));
      table.add_row({mode, core::Table::fmt(n_guests),
                     core::Table::fmt(ds.mean, 0), core::Table::fmt(ds.max, 0),
                     core::Table::fmt(bound, 0),
                     core::Table::fmt(ds.max / bound, 2)});
    }
  }
  table.print();
  std::printf("\nEdge corruptions are bounded by 2(logN+1) plus the DONE\n"
              "settling window (phase_wave_deadline), hence ratios near 2.\n");
  table.print_csv("e4_detection");
  return 0;
}
