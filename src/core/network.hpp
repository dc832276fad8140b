// High-level facade over the stabilizer: build an engine from an initial
// topology, install known-good intermediate states (legal Avatar(Cbt) — the
// scaffolded starting point of Lemma 3), run to convergence, and test
// legality. This is the public API the examples and benches use.
#pragma once

#include <cstdint>
#include <memory>

#include "avatar/embedding.hpp"
#include "graph/graph.hpp"
#include "sim/engine.hpp"
#include "stabilizer/protocol.hpp"

namespace chs::core {

using stabilizer::Params;
using stabilizer::Phase;
using StabEngine = stabilizer::StabEngine;

/// Engine over an arbitrary initial topology; every host starts as a
/// freshly-reset singleton cluster (the post-detection state — see
/// reset_to_singleton). Host ids must lie in [0, params.n_guests).
std::unique_ptr<StabEngine> make_engine(graph::Graph initial, Params params,
                                        std::uint64_t seed);

/// The host graph of a *scaffolded* start: the legal Avatar(Cbt) embedding
/// plus the successor-ring edges the merge procedure maintains.
graph::Graph scaffold_graph(std::vector<graph::NodeId> ids,
                            std::uint64_t n_guests);

/// Overwrite every host's state with the legal single-cluster Avatar(Cbt)
/// configuration (canonical ranges, boundary/parent maps, succ/pred ring,
/// cluster root = host of the guest root). `phase` selects where to start:
///   Phase::kCbt   — the cluster must still discover completion via a poll;
///   Phase::kChord — Algorithm 1 starts immediately (Lemma 3's G0).
/// The engine's topology should be scaffold_graph(...) for a legal start.
void install_legal_cbt(StabEngine& eng, Phase phase,
                       const std::vector<graph::NodeId>* members = nullptr);

/// Overwrite states (and expected topology edges) with a *scaffolded Chord
/// configuration* (Definition 2): the legal Avatar(Cbt) plus all finger
/// levels up to and including `k` already built, phase kChord, the root
/// about to launch wave k+1. Pass k = -1 for "phase just flipped".
/// The engine's topology is adjusted to match (finger host edges added).
void install_chord_built_upto(StabEngine& eng, std::int32_t k,
                              const std::vector<graph::NodeId>* members = nullptr);

/// Mid-run target-topology switch (campaign `retarget` events): install the
/// new target spec in the protocol and restart every host as a singleton
/// cluster over the *current* topology — the old target's built overlay
/// becomes just another arbitrary initial configuration the stabilizer
/// reconverges from. Hosts are restarted explicitly because a network that
/// legally built the old target holds no locally-detectable fault against
/// the new one; this models an operator reconfiguration, not a silent fault.
void retarget(StabEngine& eng, topology::TargetSpec target);

/// Exact convergence predicate: the topology equals the ideal host graph of
/// the target and every host is silent in phase DONE.
bool is_converged(const StabEngine& eng);

/// True iff the host graph is exactly the scaffold graph (Avatar(Cbt) plus
/// ring) — the intermediate "scaffold complete" milestone.
bool is_scaffold_complete(const StabEngine& eng);

struct RunResult {
  std::uint64_t rounds = 0;
  bool converged = false;
  double degree_expansion = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t total_resets = 0;
};

/// Step until is_converged or the round budget runs out.
RunResult run_to_convergence(StabEngine& eng, std::uint64_t max_rounds);

/// Sum of HostState::resets over all hosts (instrumentation).
std::uint64_t total_resets(const StabEngine& eng);

}  // namespace chs::core
