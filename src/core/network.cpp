#include "core/network.hpp"

#include <algorithm>

#include "avatar/range.hpp"
#include "core/churn.hpp"
#include "topology/cbt.hpp"

namespace chs::core {

using avatar::host_of;
using graph::NodeId;
using stabilizer::HostState;
using stabilizer::kNone;
using stabilizer::Protocol;

std::unique_ptr<StabEngine> make_engine(graph::Graph initial, Params params,
                                        std::uint64_t seed) {
  return std::make_unique<StabEngine>(std::move(initial), Protocol(params), seed);
}

graph::Graph scaffold_graph(std::vector<NodeId> ids, std::uint64_t n_guests) {
  graph::Graph g = avatar::ideal_cbt_host_graph(std::move(ids), n_guests);
  const auto& sorted = g.ids();
  for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
    g.add_edge(sorted[i], sorted[i + 1]);  // succ/pred ring chain
  }
  return g;
}

void install_legal_cbt(StabEngine& eng, Phase phase,
                       const std::vector<graph::NodeId>* members) {
  const Params& params = eng.protocol().params();
  const topology::Cbt& cbt = eng.protocol().cbt();
  const std::uint64_t n = params.n_guests;
  const std::vector<graph::NodeId>& ids =
      members != nullptr ? *members : eng.graph().ids();
  CHS_CHECK(!ids.empty());
  CHS_CHECK(std::is_sorted(ids.begin(), ids.end()));
  const NodeId root_host = host_of(cbt.root(), ids);
  const std::uint32_t waves = eng.protocol().num_waves();

  for (std::size_t i = 0; i < ids.size(); ++i) {
    const NodeId id = ids[i];
    HostState& st = eng.state_mut(id);
    st = HostState{};
    st.id = id;
    st.cluster = root_host;
    const avatar::Range r = avatar::range_of(id, ids, n);
    st.lo = r.lo;
    st.hi = r.hi;
    st.succ = (i + 1 < ids.size()) ? ids[i + 1] : kNone;
    st.pred = (i > 0) ? ids[i - 1] : kNone;
    for (const auto& ce : cbt.crossing_edges(st.lo, st.hi)) {
      if (ce.child_inside) {
        st.parent_host[ce.child_pos] = host_of(ce.parent_pos, ids);
      } else {
        st.boundary_host[ce.child_pos] = host_of(ce.child_pos, ids);
      }
    }
    eng.protocol().recompute_fragments(st);
    st.phase = phase;
    if (phase == Phase::kCbt) {
      st.epoch.timer = 1 + (id % params.epoch_rounds());
    } else {
      st.wave_k = -1;
      st.active_wave_k = -1;
      st.fwd_maps.assign(waves, {});
      st.rev_maps.assign(waves, {});
      if (st.is_root()) {
        st.chord_next_wave = 0;
        st.chord_gap_timer = 1;  // launch MakeFinger(0) next round
      }
    }
    st.nbrs = eng.graph().neighbors(id);
  }
  eng.republish();
}

void install_chord_built_upto(StabEngine& eng, std::int32_t k,
                              const std::vector<graph::NodeId>* members) {
  install_legal_cbt(eng, Phase::kChord, members);
  const Params& params = eng.protocol().params();
  const std::uint64_t n = params.n_guests;
  const std::vector<graph::NodeId>& ids =
      members != nullptr ? *members : eng.graph().ids();
  const std::uint32_t waves = eng.protocol().num_waves();
  CHS_CHECK(k < static_cast<std::int32_t>(waves));

  // Add the host edges of every built finger level.
  for (std::int32_t j = 0; j <= k; ++j) {
    const std::uint64_t d = std::uint64_t{1} << j;
    for (NodeId a : ids) {
      const avatar::Range r = avatar::range_of(a, ids, n);
      for (std::uint64_t g = r.lo; g < r.hi; ++g) {
        const NodeId hb = host_of((g + d) % n, ids);
        if (hb != a) eng.inject_edge(a, hb);
      }
    }
  }

  for (NodeId id : ids) {
    stabilizer::HostState& st = eng.state_mut(id);
    st.wave_k = k;
    st.fwd_maps.assign(waves, {});
    st.rev_maps.assign(waves, {});
    for (std::int32_t j = 0; j <= k; ++j) {
      const std::uint64_t d = std::uint64_t{1} << j;
      // Piecewise host assignment of [lo+d, hi+d) and [lo-d, hi-d) mod n.
      std::uint64_t a = st.lo;
      while (a < st.hi) {
        const std::uint64_t fwd_t = (a + d) % n;
        const std::uint64_t rev_t = (a + n - (d % n)) % n;
        const NodeId hf = host_of(fwd_t, ids);
        const NodeId hr = host_of(rev_t, ids);
        const avatar::Range rf = avatar::range_of(hf, ids, n);
        const avatar::Range rr = avatar::range_of(hr, ids, n);
        const std::uint64_t len = std::min(
            {st.hi - a, rf.hi - fwd_t, rr.hi - rev_t, n - fwd_t, n - rev_t});
        st.fwd_maps[j].assign(fwd_t, fwd_t + len, hf);
        st.rev_maps[j].assign(rev_t, rev_t + len, hr);
        a += std::max<std::uint64_t>(1, len);
      }
    }
    if (st.is_root()) {
      st.chord_next_wave = k + 1;
      st.chord_gap_timer = 1;
    }
    st.nbrs = eng.graph().neighbors(id);
  }
  eng.republish();
}

void retarget(StabEngine& eng, topology::TargetSpec target) {
  eng.protocol().set_target(std::move(target));
  for (NodeId id : eng.graph().ids()) reset_host_state(eng, id);
  // Every host changed: the full republish sweep is the right tool here.
  eng.republish();
}

bool is_converged(const StabEngine& eng) {
  for (NodeId id : eng.graph().ids()) {
    if (eng.state(id).phase != Phase::kDone) return false;
  }
  // The final topology is the target's dilation-1 embedding plus the
  // successor-ring chain: the merge machinery's successor pointers are kept
  // alongside the scaffold ("unlike a real scaffold, we maintain the
  // scaffold edges"). For the paper's Chord target the ring coincides with
  // finger 0, so this is exactly Avatar(Chord); for pruned targets
  // (hypercube) the chain survives as cluster structure.
  graph::Graph want = avatar::ideal_host_graph(
      eng.protocol().params().target, eng.graph().ids(),
      eng.protocol().params().n_guests);
  const auto& sorted = want.ids();
  for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
    want.add_edge(sorted[i], sorted[i + 1]);
  }
  return eng.graph().same_topology(want);
}

bool is_scaffold_complete(const StabEngine& eng) {
  const graph::Graph want =
      scaffold_graph(eng.graph().ids(), eng.protocol().params().n_guests);
  return eng.graph().same_topology(want);
}

std::uint64_t total_resets(const StabEngine& eng) {
  std::uint64_t total = 0;
  for (NodeId id : eng.graph().ids()) total += eng.state(id).resets;
  return total;
}

RunResult run_to_convergence(StabEngine& eng, std::uint64_t max_rounds) {
  RunResult res;
  const auto [rounds, ok] = eng.run_until(
      [](StabEngine& e) { return is_converged(e); }, max_rounds);
  res.rounds = rounds;
  res.converged = ok;
  res.degree_expansion = eng.metrics().degree_expansion(eng.graph());
  res.messages = eng.metrics().messages();
  res.total_resets = total_resets(eng);
  return res;
}

}  // namespace chs::core
