#include "graph/graph.hpp"

#include <algorithm>
#include <functional>

namespace chs::graph {

Graph::Graph(std::vector<NodeId> ids) : ids_(std::move(ids)) {
  std::sort(ids_.begin(), ids_.end());
  CHS_CHECK_MSG(std::adjacent_find(ids_.begin(), ids_.end()) == ids_.end(),
                "duplicate node ids");
  adj_.resize(ids_.size());
  build_slots();
}

bool Graph::slots_buildable() const {
  return adj_.size() == ids_.size() &&
         std::adjacent_find(ids_.begin(), ids_.end(),
                            std::greater_equal<>()) == ids_.end() &&
         (ids_.empty() || ids_.back() < (NodeId{1} << 32));
}

void Graph::build_slots() {
  // Host ids are a subset of [0, N), so a table sized by the largest id
  // costs at most N entries.
  slot_.assign(ids_.empty() ? 0 : ids_.back() + 1, kNoSlot);
  for (NodeIndex i = 0; i < ids_.size(); ++i) slot_[ids_[i]] = i;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  if (u == v) return false;
  const auto& nu = adj_[index_of(u)];
  return std::binary_search(nu.begin(), nu.end(), v);
}

bool Graph::add_edge(NodeId u, NodeId v) {
  if (u == v) return false;
  auto& nu = adj_[index_of(u)];
  auto it = std::lower_bound(nu.begin(), nu.end(), v);
  if (it != nu.end() && *it == v) return false;
  nu.insert(it, v);
  auto& nv = adj_[index_of(v)];
  nv.insert(std::lower_bound(nv.begin(), nv.end(), u), u);
  ++num_edges_;
  return true;
}

bool Graph::remove_edge(NodeId u, NodeId v) {
  if (u == v) return false;
  auto& nu = adj_[index_of(u)];
  auto it = std::lower_bound(nu.begin(), nu.end(), v);
  if (it == nu.end() || *it != v) return false;
  nu.erase(it);
  auto& nv = adj_[index_of(v)];
  auto jt = std::lower_bound(nv.begin(), nv.end(), u);
  CHS_DCHECK(jt != nv.end() && *jt == u);
  nv.erase(jt);
  --num_edges_;
  return true;
}

std::size_t Graph::max_degree() const {
  std::size_t best = 0;
  for (const auto& n : adj_) best = std::max(best, n.size());
  return best;
}

std::vector<std::pair<NodeId, NodeId>> Graph::edge_list() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(num_edges_);
  for (NodeIndex i = 0; i < ids_.size(); ++i) {
    for (NodeId v : adj_[i]) {
      if (ids_[i] < v) out.emplace_back(ids_[i], v);
    }
  }
  return out;
}

bool Graph::same_topology(const Graph& other) const {
  return ids_ == other.ids_ && adj_ == other.adj_;
}

}  // namespace chs::graph
