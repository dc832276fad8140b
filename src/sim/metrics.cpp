#include "sim/metrics.hpp"

#include <algorithm>

namespace chs::sim {

void RunMetrics::observe_initial(const graph::Graph& g) {
  initial_max_degree_ = g.max_degree();
  peak_max_degree_ = initial_max_degree_;
  cached_max_degree_ = initial_max_degree_;
}

void RunMetrics::observe_round(const graph::Graph& g, std::uint64_t actions,
                               std::uint64_t stepped, bool topo_changed) {
  ++rounds_;
  round_actions_ += actions;
  nodes_stepped_ += stepped;
  last_nodes_stepped_ = stepped;
  // max_degree() is O(n); skip the scan on the (common, quiescent) rounds
  // where no edge changed. Degrees are unchanged, so the cache is exact.
  if (topo_changed) cached_max_degree_ = g.max_degree();
  const std::size_t d = cached_max_degree_;
  peak_max_degree_ = std::max(peak_max_degree_, d);
  if (trace_recording_) trace_.push_back(d);
}

void RunMetrics::observe_scheduler(std::size_t pending_events,
                                   std::size_t peak_bucket_occupancy) {
  peak_pending_events_ = std::max(peak_pending_events_, pending_events);
  peak_bucket_occupancy_ =
      std::max(peak_bucket_occupancy_, peak_bucket_occupancy);
}

double RunMetrics::degree_expansion(const graph::Graph& final_graph) const {
  const std::size_t baseline =
      std::max<std::size_t>(1, std::max(initial_max_degree_, final_graph.max_degree()));
  return static_cast<double>(peak_max_degree_) / static_cast<double>(baseline);
}

}  // namespace chs::sim
