// Undirected graph over arbitrary 64-bit node identifiers.
//
// This is the simulator's ground-truth topology: in the overlay model (§2.1
// of the paper) the edge set *is* part of the distributed state, so the
// engine owns one Graph instance and applies protocol edge actions to it
// between rounds. Nodes carry sparse u64 ids (host ids are an arbitrary
// subset of [0, N)) but adjacency is stored densely by index, and a slot
// table indexed by id maps an id to its index in one load (DESIGN.md D10).
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace chs::graph {

using NodeId = std::uint64_t;
using NodeIndex = std::uint32_t;

class Graph {
 public:
  Graph() = default;

  /// Build a graph with the given vertex set and no edges. Ids must be
  /// unique; they are stored sorted.
  explicit Graph(std::vector<NodeId> ids);

  std::size_t size() const { return ids_.size(); }
  std::size_t num_edges() const { return num_edges_; }

  /// Sorted vertex ids.
  const std::vector<NodeId>& ids() const { return ids_; }

  bool contains(NodeId id) const {
    return id < slot_.size() && slot_[id] != kNoSlot;
  }
  NodeIndex index_of(NodeId id) const {
    CHS_CHECK_MSG(contains(id), "unknown node id");
    return slot_[id];
  }
  NodeId id_of(NodeIndex idx) const {
    CHS_DCHECK(idx < ids_.size());
    return ids_[idx];
  }

  bool has_edge(NodeId u, NodeId v) const;

  /// Add undirected edge {u, v}. Returns false if it already existed or
  /// u == v (self-loops are meaningless in the overlay model).
  bool add_edge(NodeId u, NodeId v);

  /// Remove undirected edge {u, v}. Returns false if absent.
  bool remove_edge(NodeId u, NodeId v);

  /// Sorted neighbor ids of u.
  const std::vector<NodeId>& neighbors(NodeId u) const {
    return adj_[index_of(u)];
  }
  const std::vector<NodeId>& neighbors_at(NodeIndex i) const {
    CHS_DCHECK(i < adj_.size());
    return adj_[i];
  }

  std::size_t degree(NodeId u) const { return adj_[index_of(u)].size(); }

  std::size_t max_degree() const;

  /// All edges as (u, v) pairs with u < v, in deterministic order.
  std::vector<std::pair<NodeId, NodeId>> edge_list() const;

  /// Structural equality of vertex sets and edge sets.
  bool same_topology(const Graph& other) const;

  /// Checkpoint/restore (DESIGN.md D9): the edge set is distributed state in
  /// the overlay model, so the whole adjacency round-trips exactly. The
  /// slot table is derived from ids_ and rebuilt on read, never stored.
  template <typename A>
  void persist_fields(A& a) {
    a(ids_);
    a(adj_);
    a(num_edges_);
    if constexpr (A::kIsReader) {
      if (!a.ok()) return;
      if (!slots_buildable()) {
        a.fail("graph ids unsorted, past 2^32 or without adjacency");
        return;
      }
      build_slots();
    }
  }

 private:
  static constexpr NodeIndex kNoSlot = ~NodeIndex{0};

  /// Read-side check of ids that come from a blob: strictly ascending, one
  /// adjacency list each, and below 2^32, so a corrupt id cannot demand a
  /// slot table past 16 GiB (guest spaces here stay far below 2^32).
  bool slots_buildable() const;
  void build_slots();

  std::vector<NodeId> ids_;               // sorted
  std::vector<NodeIndex> slot_;           // slot_[id] = index, or kNoSlot
  std::vector<std::vector<NodeId>> adj_;  // adj_[i] sorted by id
  std::size_t num_edges_ = 0;
};

}  // namespace chs::graph
