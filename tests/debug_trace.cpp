// Scratch debugging harness (not a registered test). Prints per-round state
// summaries for small scenarios.
#include <cstdio>
#include <cstring>

#include "core/network.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"

using namespace chs;
using core::Params;
using core::Phase;
using stabilizer::HostState;

static void dump(core::StabEngine& eng, std::uint64_t round) {
  std::printf("--- round %llu edges=%zu ---\n",
              static_cast<unsigned long long>(round), eng.graph().num_edges());
  for (auto id : eng.graph().ids()) {
    const HostState& st = eng.state(id);
    std::printf(
        "  id=%llu ph=%s cl=%llu lo=%llu hi=%llu succ=%lld pred=%lld wk=%d awk=%d "
        "role=%s mstage=%s waves=%zu resets=%llu deg=%zu nxt=%d gap=%llu fl=%d fa=%lld\n",
        (unsigned long long)id, stabilizer::phase_name(st.phase),
        (unsigned long long)st.cluster, (unsigned long long)st.lo,
        (unsigned long long)st.hi, st.succ == stabilizer::kNone ? -1 : (long long)st.succ,
        st.pred == stabilizer::kNone ? -1 : (long long)st.pred, st.wave_k,
        st.active_wave_k, stabilizer::epoch_role_name(st.epoch.role),
        stabilizer::merge_stage_name(st.merge.stage), st.waves.size(),
        (unsigned long long)st.resets, eng.graph().degree(id),
        st.chord_next_wave, (unsigned long long)st.chord_gap_timer, st.fault_line,
        st.fault_aux == stabilizer::kNone ? -1 : (long long)st.fault_aux);
  }
}

static void dump_edges(core::StabEngine& eng) {
  for (auto& [u, v] : eng.graph().edge_list())
    std::printf("  edge %llu-%llu\n", (unsigned long long)u, (unsigned long long)v);
}

static void dump_flags(core::StabEngine& eng) {
  for (auto id : eng.graph().ids()) {
    const HostState& st = eng.state(id);
    std::printf("  id=%llu ph=%s ipw=%d idw=%d pruned=%d pwd=%llu\n",
                (unsigned long long)id, stabilizer::phase_name(st.phase),
                (int)st.in_phase_wave, (int)st.in_done_wave, (int)st.done_pruned,
                (unsigned long long)st.phase_wave_deadline);
  }
}

int main(int argc, char** argv) {
  const char* scenario = argc > 1 ? argv[1] : "two";
  int rounds = argc > 2 ? std::atoi(argv[2]) : 60;
  Params p;
  std::unique_ptr<core::StabEngine> eng;
  if (!std::strcmp(scenario, "two")) {
    p.n_guests = 16;
    eng = core::make_engine(core::scaffold_graph({3, 11}, 16), p, 1);
    core::install_legal_cbt(*eng, Phase::kChord);
  } else if (!std::strcmp(scenario, "dense")) {
    p.n_guests = 16;
    std::vector<graph::NodeId> ids(16);
    for (int i = 0; i < 16; ++i) ids[i] = i;
    eng = core::make_engine(core::scaffold_graph(ids, 16), p, 1);
    core::install_legal_cbt(*eng, Phase::kChord);
  } else if (!std::strcmp(scenario, "cbtdisc")) {
    p.n_guests = 8;
    std::vector<graph::NodeId> ids(8);
    for (int i = 0; i < 8; ++i) ids[i] = i;
    eng = core::make_engine(core::scaffold_graph(ids, 8), p, 1);
    core::install_legal_cbt(*eng, Phase::kCbt);
  } else if (!std::strcmp(scenario, "four")) {
    p.n_guests = 16;
    eng = core::make_engine(graph::make_line({1, 6, 9, 14}), p, 3);
  } else {
    std::fprintf(stderr, "unknown scenario\n");
    return 1;
  }
  // Every committed edge removal, with the protocol site (or "external")
  // that asked for it.
  eng->set_round_observer([](std::uint64_t round,
                             std::span<const graph::NodeIndex>,
                             std::span<const sim::EdgeDelta> deltas) {
    for (const sim::EdgeDelta& d : deltas) {
      if (!d.removed) continue;
      std::printf("  round %llu del %llu-%llu by %s\n",
                  static_cast<unsigned long long>(round),
                  static_cast<unsigned long long>(d.u),
                  static_cast<unsigned long long>(d.v), d.site);
    }
  });
  const bool flags = argc > 3 && !std::strcmp(argv[3], "flags");
  for (int r = 0; r < rounds; ++r) {
    eng->step_round();
    dump(*eng, r);
    if (flags) dump_flags(*eng);
    if (flags && r == rounds - 1) dump_edges(*eng);
    if (core::is_converged(*eng)) {
      std::printf("CONVERGED at %d\n", r);
      return 0;
    }
  }
  std::printf("NOT converged\n");
  return 0;
}
