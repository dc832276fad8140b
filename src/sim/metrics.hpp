// Run metrics: the two quantities the paper analyzes (§2.2) plus counters.
//
// Convergence time  — rounds until the legality predicate holds (tracked by
//                     the caller via Engine::run_until).
// Degree expansion  — max degree of any node *during* the run divided by
//                     max(initial max degree, final max degree). A value of
//                     1.0 means the protocol never exceeded the degrees the
//                     configuration itself required.
//
// Engine-layer counters (DESIGN.md D5): nodes stepped and snapshots
// published per run measure what the active-set loop and dirty publishing
// actually save; scheduler occupancy tracks calendar-queue pressure.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace chs::sim {

class RunMetrics {
 public:
  void observe_initial(const graph::Graph& g);
  void observe_round(const graph::Graph& g, std::uint64_t actions,
                     std::uint64_t stepped, bool topo_changed);
  void observe_scheduler(std::size_t pending_events,
                         std::size_t peak_bucket_occupancy);

  /// Resident-memory footprint per host, recorded on demand (never
  /// automatically: capacities depend on the worker-count knob, and a
  /// per-round sample would leak that knob into checkpoint bytes, breaking
  /// the any-worker-count byte-identity rule). Engine::record_live_bytes is
  /// the intended writer; 0 means "never sampled".
  void set_bytes_per_host(std::uint64_t b) { bytes_per_host_ = b; }
  std::uint64_t bytes_per_host() const { return bytes_per_host_; }

  void count_message() { ++messages_; }
  /// A network delivery suppressed by the engine's delivery filter
  /// (message-loss / partition fault injection — DESIGN.md D7).
  void count_message_dropped() { ++messages_dropped_; }
  void count_edge_add() { ++edge_adds_; }
  void count_edge_del() { ++edge_dels_; }
  /// A deferred protocol deletion dropped at apply time because its
  /// connectivity-certificate path no longer existed in the live graph
  /// (Engine commit-time validation; see ActionBuffer::EdgeDel::witness).
  void count_stale_cert_drop() { ++stale_cert_drops_; }
  void count_snapshots(std::uint64_t k) { snapshots_published_ += k; }

  std::uint64_t messages() const { return messages_; }
  std::uint64_t messages_dropped() const { return messages_dropped_; }
  std::uint64_t edge_adds() const { return edge_adds_; }
  std::uint64_t edge_dels() const { return edge_dels_; }
  std::uint64_t stale_cert_drops() const { return stale_cert_drops_; }
  std::uint64_t rounds() const { return rounds_; }

  /// Cumulative protocol actions (sends + holds + edge requests) over all
  /// observed rounds — the `actions` argument of observe_round, summed. The
  /// per-window series recorder (src/obs/) samples this as its activity
  /// counter; zero across a window means the network was truly quiescent.
  std::uint64_t round_actions() const { return round_actions_; }

  /// Cumulative nodes stepped over all rounds (== n * rounds when every
  /// node steps every round; far less once the active set shrinks).
  std::uint64_t nodes_stepped() const { return nodes_stepped_; }
  /// Nodes stepped in the most recent round.
  std::uint64_t last_nodes_stepped() const { return last_nodes_stepped_; }
  /// Cumulative Protocol::publish invocations (dirty snapshots only).
  std::uint64_t snapshots_published() const { return snapshots_published_; }
  /// High-water mark of events pending in the engine calendars.
  std::size_t peak_pending_events() const { return peak_pending_events_; }
  /// Largest single calendar bucket ever observed.
  std::size_t peak_bucket_occupancy() const { return peak_bucket_occupancy_; }

  std::size_t initial_max_degree() const { return initial_max_degree_; }
  std::size_t peak_max_degree() const { return peak_max_degree_; }

  /// §2.2 degree expansion given the final topology.
  double degree_expansion(const graph::Graph& final_graph) const;

  /// Per-round max degree trace (index 0 = after the first round).
  const std::vector<std::size_t>& max_degree_trace() const { return trace_; }

  /// Disable the per-round trace for unbounded runs (benchmarks): it grows
  /// by one entry per round forever. Counters and peaks are unaffected.
  void set_trace_recording(bool on) {
    trace_recording_ = on;
    if (!on) trace_.clear();
  }

  /// Checkpoint/restore (DESIGN.md D9): every counter, peak, and the full
  /// per-round trace round-trip, so a resumed run's final RunMetrics — and
  /// any report derived from it — is bit-for-bit the uninterrupted run's.
  template <typename A>
  void persist_fields(A& a) {
    a(messages_);
    a(messages_dropped_);
    a(edge_adds_);
    a(edge_dels_);
    a(rounds_);
    a(round_actions_);
    a(nodes_stepped_);
    a(last_nodes_stepped_);
    a(snapshots_published_);
    a(peak_pending_events_);
    a(peak_bucket_occupancy_);
    a(initial_max_degree_);
    a(peak_max_degree_);
    a(bytes_per_host_);
    a(cached_max_degree_);
    a(trace_recording_);
    a(trace_);
    a(stale_cert_drops_);
  }

 private:
  std::uint64_t messages_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t edge_adds_ = 0;
  std::uint64_t edge_dels_ = 0;
  std::uint64_t stale_cert_drops_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t round_actions_ = 0;
  std::uint64_t nodes_stepped_ = 0;
  std::uint64_t last_nodes_stepped_ = 0;
  std::uint64_t snapshots_published_ = 0;
  std::size_t peak_pending_events_ = 0;
  std::size_t peak_bucket_occupancy_ = 0;
  std::size_t initial_max_degree_ = 0;
  std::size_t peak_max_degree_ = 0;
  std::uint64_t bytes_per_host_ = 0;
  std::size_t cached_max_degree_ = 0;  // valid while the topology is unchanged
  bool trace_recording_ = true;
  std::vector<std::size_t> trace_;
};

}  // namespace chs::sim
