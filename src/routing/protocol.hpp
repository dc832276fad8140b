// In-band lookups: the application the overlay exists for, executed as real
// messages over the *built* host network (not a god's-eye graph walk).
//
// Each host forwards by the shared greedy rule of routing/route.hpp over the
// RouteTable the stabilizer left behind, restricted to its current
// neighbors: for pruned targets (skiplist, smallworld, hypercube) the
// wave-built fwd maps can reference hosts whose span edges the DONE wave
// removed.
//
// make_lookup_engine() snapshots a converged stabilizer engine — the
// realistic hand-off from the maintenance plane to the data plane.
#pragma once

#include <cstdint>
#include <vector>

#include "routing/route.hpp"

namespace chs::routing {

class LookupProtocol {
 public:
  /// Active-set stepping (DESIGN.md D6): lookups are purely message-driven —
  /// injections via state_mut wake the origin, deliveries wake each hop — so
  /// idle hosts never step and a large converged plane costs nothing.
  static constexpr bool kUsesActiveSet = true;

  struct Message {
    std::uint64_t lookup_id = 0;
    GuestId target = 0;
    NodeId origin = kNoneHost;
    std::uint32_t hops = 0;
  };
  struct NodeState : RouteTable {
    // Delivery log (target guest, hops) for lookups that ended here.
    std::vector<std::pair<GuestId, std::uint32_t>> delivered;
    // Injected lookups to fire on this host's next step: (target, id).
    std::vector<std::pair<GuestId, std::uint64_t>> to_send;
  };
  struct PublicState {};

  using Ctx = sim::NodeCtx<LookupProtocol>;

  explicit LookupProtocol(std::uint64_t n_guests) : n_guests_(n_guests) {}

  std::uint64_t n_guests() const { return n_guests_; }

  void init_node(NodeId, NodeState&, util::Rng&) {}
  void publish(const NodeState&, PublicState&) {}
  void step(Ctx& ctx);

  /// Active-set contract hook: no timers, so nothing to announce (see
  /// KvProtocol::schedule_wakeups for the reasoning).
  void schedule_wakeups(Ctx& ctx) const;

  /// Engine checkpoint hook: only immutable configuration lives here.
  template <typename A>
  void persist_fields(A&) {}

 private:
  std::uint64_t n_guests_;
};

using LookupEngine = sim::Engine<LookupProtocol>;

/// Snapshot a converged stabilizer engine into a lookup engine (see
/// snapshot_routes; CHS_CHECKs convergence).
std::unique_ptr<LookupEngine> make_lookup_engine(const core::StabEngine& src,
                                                 std::uint64_t seed);

struct InBandStats {
  std::size_t issued = 0;
  std::size_t delivered = 0;
  double mean_hops = 0.0;
  std::uint32_t max_hops = 0;
  std::uint64_t rounds = 0;
};

/// Issue `count` random lookups from random hosts and run until delivered
/// (or the round budget runs out).
InBandStats run_inband_lookups(LookupEngine& eng, std::size_t count,
                               std::uint64_t seed, std::uint64_t max_rounds);

}  // namespace chs::routing
