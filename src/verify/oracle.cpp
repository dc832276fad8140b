#include "verify/oracle.hpp"

#include <algorithm>
#include <sstream>
#include <span>

#include "graph/analysis.hpp"
#include "obs/flight.hpp"
#include "util/check.hpp"

namespace chs::verify {

using graph::NodeId;
using graph::NodeIndex;

namespace {
/// Hosts a captured hard-fail trace shows: the focus host and its first
/// neighbors, or the first hosts by id for I1.
constexpr std::size_t kTraceHosts = 8;
}  // namespace

InvariantOracle::InvariantOracle(core::StabEngine& eng, OracleConfig cfg)
    : eng_(&eng), cfg_(cfg) {
  CHS_CHECK(cfg_.stride >= 1);
  pending_mark_.assign(eng.graph().size(), 0);
  eng.set_round_observer(
      [this](std::uint64_t round, std::span<const NodeIndex> dirty,
             std::span<const sim::EdgeDelta> deltas) {
        on_round(round, dirty, deltas);
      });
  // Full check at attach: the incremental scheme below re-checks only what
  // changes, so it is exact only relative to a verified base state.
  paths_ |= kPathAttachFull;
  ++rounds_checked_;
  const auto& g = eng.graph();
  ++connectivity_rebuilds_;
  if (g.size() > 1 && !graph::is_connected(g)) {
    record(eng.round(), "I1: network disconnected", stabilizer::kNone);
    return;
  }
  for (NodeId id : g.ids()) {
    ++hosts_checked_;
    std::string v = core::check_host_invariants(eng, id);
    if (!v.empty()) {
      if (record(eng.round(), std::move(v), id)) return;
    }
  }
}

InvariantOracle::~InvariantOracle() { detach(); }

void InvariantOracle::detach() {
  if (!eng_) return;
  // Flush the final partial stride window: with stride > 1 a violation in
  // the last rounds of a run would otherwise still be sitting in the
  // pending set, and the run would be reported clean. Only violations
  // that appear *and heal* strictly between samples may be missed.
  if (!violation_ && (!pending_.empty() || deletions_pending_)) {
    paths_ |= kPathDetachFlush;
    evaluate(eng_->round());
  }
  eng_->set_round_observer({});
  eng_ = nullptr;
}

void InvariantOracle::mark_pending(NodeIndex i) {
  if (!pending_mark_[i]) {
    pending_mark_[i] = 1;
    pending_.push_back(i);
  }
}

void InvariantOracle::on_round(std::uint64_t round,
                               std::span<const NodeIndex> dirty,
                               std::span<const sim::EdgeDelta> deltas) {
  if (violation_) return;  // verdict reached; stay dormant until detached
  for (NodeIndex i : dirty) mark_pending(i);
  for (const sim::EdgeDelta& d : deltas) {
    // Either endpoint's structural references (I4) may have gained or lost
    // their backing edge; state-only invariants are unaffected.
    paths_ |= kPathDeltaEndpoints;
    mark_pending(eng_->graph().index_of(d.u));
    mark_pending(eng_->graph().index_of(d.v));
    if (d.removed) deletions_pending_ = true;
  }
  if (++rounds_since_check_ >= cfg_.stride) {
    evaluate(round);
  } else {
    paths_ |= kPathStrideDefer;
  }
}

void InvariantOracle::evaluate(std::uint64_t round) {
  rounds_since_check_ = 0;
  ++rounds_checked_;
  const auto& g = eng_->graph();
  if (deletions_pending_) {
    // Additions cannot disconnect a connected graph; only rounds that
    // applied a deletion pay the O(V + E) recompute.
    deletions_pending_ = false;
    paths_ |= kPathDeletionRebuild;
    ++connectivity_rebuilds_;
    if (g.size() > 1 && !graph::is_connected(g)) {
      record(round, "I1: network disconnected", stabilizer::kNone);
      return;
    }
  }
  // Ascending host order keeps the first-violation verdict deterministic
  // whatever order the pending set accumulated in.
  std::sort(pending_.begin(), pending_.end());
  if (!pending_.empty()) paths_ |= kPathDirtyRecheck;
  for (NodeIndex i : pending_) {
    ++hosts_checked_;
    std::string v = core::check_host_invariants(*eng_, g.id_of(i));
    if (!v.empty()) {
      // A contained (adversary-induced) violation is counted and skipped:
      // the remaining pending hosts still get their check, so a *real*
      // violation in the same stride window is not shadowed by it.
      if (record(round, std::move(v), g.id_of(i))) break;
    }
  }
  for (NodeIndex i : pending_) pending_mark_[i] = 0;
  pending_.clear();
}

bool InvariantOracle::is_adversarial(NodeId id) const {
  return std::binary_search(adversarial_.begin(), adversarial_.end(), id);
}

bool InvariantOracle::record(std::uint64_t round, std::string what,
                             NodeId focus) {
  // Blame attribution (DESIGN.md D11): a violation on an adversarial host,
  // or on a direct graph neighbor of one (the radius a lying snapshot
  // corrupts — neighbors read it via ctx.view and base merge/edge decisions
  // on it), is the adversary working as declared, not a protocol bug. I1
  // violations have focus == kNone and are never excused: no behavior in
  // the bestiary severs edges, so a disconnect is real even mid-attack.
  if (!adversarial_.empty() && focus != stabilizer::kNone &&
      eng_->graph().contains(focus)) {
    bool blamed = is_adversarial(focus);
    if (!blamed) {
      for (NodeId nb : eng_->graph().neighbors(focus)) {
        if (is_adversarial(nb)) {
          blamed = true;
          paths_ |= kPathNeighborBlame;
          break;
        }
      }
    }
    if (blamed) {
      paths_ |= kPathContained;
      ++contained_violations_;
      if (flight_) {
        flight_->record(round, obs::FlightKind::kViolationContained,
                        static_cast<std::uint64_t>(focus), 0, what);
      }
      return false;
    }
  }
  if (flight_) {
    flight_->record(round, obs::FlightKind::kViolationReal,
                    focus == stabilizer::kNone
                        ? 0
                        : static_cast<std::uint64_t>(focus),
                    0, what);
  }
  Violation v;
  v.round = round;
  v.what = std::move(what);
  paths_ |= kPathRealViolation;
  if (cfg_.hard_fail) {
    paths_ |= kPathTraceCapture;
    v.trace = capture_trace(focus);
  }
  violation_ = std::move(v);
  return true;
}

std::string InvariantOracle::capture_trace(NodeId focus) const {
  const auto& g = eng_->graph();
  std::ostringstream out;
  out << "round " << eng_->round() << ": " << g.size() << " hosts, "
      << g.num_edges() << " edges\n";
  // The violating host first, then its neighborhood, capped at kTraceHosts.
  std::vector<NodeId> hosts;
  if (focus != stabilizer::kNone && g.contains(focus)) {
    hosts.push_back(focus);
    for (NodeId nb : g.neighbors(focus)) {
      if (hosts.size() >= kTraceHosts) break;
      hosts.push_back(nb);
    }
  } else {
    for (NodeId id : g.ids()) {
      if (hosts.size() >= kTraceHosts) break;
      hosts.push_back(id);
    }
  }
  for (NodeId id : hosts) {
    const stabilizer::HostState& st = eng_->state(id);
    out << "  host " << id << ": phase=" << stabilizer::phase_name(st.phase)
        << " cluster=" << st.cluster << " range=[" << st.lo << "," << st.hi
        << ")";
    out << " succ=";
    if (st.succ == stabilizer::kNone) out << "-"; else out << st.succ;
    out << " pred=";
    if (st.pred == stabilizer::kNone) out << "-"; else out << st.pred;
    out << " deg=" << g.degree(id) << " resets=" << st.resets << " nbrs=";
    bool first = true;
    for (NodeId nb : g.neighbors(id)) {
      if (!first) out << ",";
      out << nb;
      first = false;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace chs::verify
