// persist_fields overloads for the protocol, campaign, and verification
// layers (DESIGN.md D9).
//
// The persist archive (persist/io.hpp) finds these by ADL, so they live in
// the namespaces of the types they serialize. They are kept here — one file,
// next to the framework — instead of scattered through the domain headers,
// because the field lists are the on-disk layout: a change to any list (or
// to the structs mirrored here) is a format change and must bump
// persist::kFormatVersion. Engine-internal types (calendars, envelopes,
// RNGs, metrics) own member persist_fields instead, since their state is
// private.
//
// Deliberately NOT serialized:
//   * HostState::frags / out_edge_to_entry and their range key
//     frags_lo / frags_hi — derived fragment geometry, recomputed by
//     Protocol::on_restore (a pure function of lo/hi cannot drift when
//     recomputed; it could when copied);
//   * anything holding pointers or handles (there is none in these types).
//
// Any translation unit that checkpoints or restores a stabilizer engine
// must include this header so the overloads are visible at the
// Engine::checkpoint/restore instantiation point.
#pragma once

#include "campaign/report.hpp"
#include "campaign/scenario.hpp"
#include "dht/kvstore.hpp"
#include "dht/workload.hpp"
#include "persist/io.hpp"
#include "routing/route.hpp"
#include "stabilizer/messages.hpp"
#include "stabilizer/state.hpp"
#include "topology/cbt.hpp"
#include "verify/minimize.hpp"

namespace chs::topology {

template <typename A>
void persist_fields(A& a, CbtInterval& v) {
  a(v.lo);
  a(v.hi);
}

}  // namespace chs::topology

namespace chs::stabilizer {

template <typename A>
void persist_fields(A& a, WaveId& v) {
  a(v.kind);
  a(v.nonce);
  a(v.k);
}

template <typename A>
void persist_fields(A& a, WaveAgg& v) {
  a(v.ext_count);
  a(v.cand_owner);
  a(v.cand_foreign);
  a(v.cand_weight);
  a(v.min_contact);
  a(v.max_contact);
  a(v.ok);
}

template <typename A>
void persist_fields(A& a, FragWave& v) {
  a(v.waiting_ext);
  a(v.internal_ready);
  a(v.ready_round);
  a(v.entered);
  a(v.completed);
  a(v.agg);
  a(v.cand_via_child);
}

template <typename A>
void persist_fields(A& a, WaveState& v) {
  a(v.started_round);
  a(v.propagate_applied);
  a(v.range_actions_done);
  a(v.frags_completed);
  a(v.frags);
}

template <typename A>
void persist_fields(A& a, EpochFsm& v) {
  a(v.role);
  a(v.nonce);
  a(v.timer);
  a(v.requests);
  a(v.granted_peer);
}

template <typename A>
void persist_fields(A& a, ZipStep& v) {
  a(v.iv);
  a(v.peer);
  a(v.parent_winner);
  a(v.sent);
  a(v.have_peer);
  a(v.peer_lo);
  a(v.peer_hi);
  a(v.peer_child_left);
  a(v.peer_child_right);
  a(v.resolved);
  a(v.waiting_done);
  a(v.done_reported);
}

template <typename A>
void persist_fields(A& a, MergeFsm& v) {
  a(v.stage);
  a(v.peer_cluster);
  a(v.nonce);
  a(v.deadline);
  a(v.steps);
  a(v.new_lo);
  a(v.new_hi);
  a(v.new_succ);
  a(v.new_pred);
  a(v.new_boundary);
  a(v.new_parent);
  a(v.committed);
}

template <typename A>
void persist_fields(A& a, HostState& v) {
  a(v.id);
  a(v.phase);
  a(v.cluster);
  a(v.lo);
  a(v.hi);
  a(v.boundary_host);
  a(v.parent_host);
  a(v.succ);
  a(v.pred);
  a(v.wave_k);
  a(v.active_wave_k);
  a(v.fwd_maps);
  a(v.rev_maps);
  a(v.chord_next_wave);
  a(v.chord_gap_timer);
  a(v.waves);
  a(v.epoch);
  a(v.merge);
  a(v.in_phase_wave);
  a(v.in_done_wave);
  a(v.phase_wave_deadline);
  a(v.active_wave_deadline);
  a(v.recent_a);
  a(v.recent_b);
  a(v.recent_until);
  // frags / out_edge_to_entry / frags_lo / frags_hi: derived, recomputed by
  // Protocol::on_restore.
  a(v.done_needed);
  a(v.done_pruned);
  a(v.nbrs);
  a(v.resets);
  a(v.fault_line);
  a(v.fault_aux);
}

template <typename A>
void persist_fields(A& a, PublicState& v) {
  a(v.id);
  a(v.phase);
  a(v.cluster);
  a(v.merging_with);
  a(v.lo);
  a(v.hi);
  a(v.succ);
  a(v.pred);
  a(v.wave_k);
  a(v.active_wave_k);
  a(v.in_phase_wave);
  a(v.in_done_wave);
  a(v.nbrs);
  a(v.structural);
}

// --- message vocabulary (every alternative of stabilizer::Message) ---------

template <typename A>
void persist_fields(A& a, WaveMeta& v) {
  a(v.id);
  a(v.cluster);
}

template <typename A>
void persist_fields(A& a, MWaveDown& v) {
  a(v.meta);
  a(v.entry);
}

template <typename A>
void persist_fields(A& a, MWaveFwd& v) {
  a(v.meta);
  a(v.child_pos);
}

template <typename A>
void persist_fields(A& a, MWaveUp& v) {
  a(v.meta);
  a(v.child_pos);
  a(v.agg);
}

template <typename A>
void persist_fields(A& a, MWaveTick& v) {
  a(v.meta);
  a(v.entry);
}

template <typename A>
void persist_fields(A& a, MRingNote& v) {
  a(v.min_host);
  a(v.max_host);
}

template <typename A>
void persist_fields(A& a, MFingerNote& v) {
  a(v.k);
  a(v.tlo);
  a(v.thi);
  a(v.host);
  a(v.fwd);
}

template <typename A>
void persist_fields(A& a, MFollowGo& v) {
  a(v.nonce);
  a(v.froot);
  a(v.entry);
}

template <typename A>
void persist_fields(A& a, MMergeReqHop& v) {
  a(v.froot);
}

template <typename A>
void persist_fields(A& a, MMatchGrant& v) {
  a(v.peer);
  a(v.nonce);
}

template <typename A>
void persist_fields(A& a, MMergePropose& v) {
  a(v.nonce);
  a(v.my_cluster);
}

template <typename A>
void persist_fields(A& a, MMergeAck& v) {
  a(v.nonce);
  a(v.accept);
}

template <typename A>
void persist_fields(A& a, MZipStart& v) {
  a(v.nonce);
  a(v.iv);
  a(v.peer);
  a(v.peer_cluster);
  a(v.parent_winner);
}

template <typename A>
void persist_fields(A& a, MZipStep& v) {
  a(v.nonce);
  a(v.iv);
  a(v.lo);
  a(v.hi);
  a(v.child_left);
  a(v.child_right);
  a(v.parent_winner);
  a(v.my_cluster);
}

template <typename A>
void persist_fields(A& a, MZipPhase2& v) {
  a(v.nonce);
  a(v.pos);
}

template <typename A>
void persist_fields(A& a, MZipDone& v) {
  a(v.nonce);
  a(v.pos);
}

template <typename A>
void persist_fields(A& a, MMergeCommit& v) {
  a(v.nonce);
  a(v.new_cluster);
}

}  // namespace chs::stabilizer

// --- data plane (dht + routing): checkpointable since the active-set port ---

namespace chs::dht {

template <typename A>
void persist_fields(A& a, KvProtocol::Message& v) {
  a(v.kind);
  a(v.op_id);
  a(v.key);
  a(v.value);
  a(v.target);
  a(v.origin);
  a(v.reply_home);
  a(v.hops);
  a(v.found);
}

template <typename A>
void persist_fields(A& a, KvProtocol::NodeState& v) {
  a(static_cast<routing::RouteTable&>(v));
  a(v.down);
  a(v.store);
  a(v.to_send);
  a(v.completed);
  a(v.served_puts);
  a(v.served_gets);
  a(v.dropped_ops);
  a(v.dropped_msgs);
}

template <typename A>
void persist_fields(A& a, KvProtocol::PublicState& v) {
  a(v.down);
}

template <typename A>
void persist_fields(A& a, InFlightOp& v) {
  a(v.kind);
  a(v.key);
  a(v.client);
  a(v.issued_at);
  a(v.deadline);
  a(v.attempt);
  a(v.acks_pending);
}

}  // namespace chs::dht

namespace chs::routing {

template <typename A>
void persist_fields(A& a, RouteTable& v) {
  a(v.lo);
  a(v.hi);
  a(v.fwd);
  a(v.succ);
}

}  // namespace chs::routing

namespace chs::campaign {

template <typename A>
void persist_fields(A& a, TimelineEvent& v) {
  a(v.kind);
  a(v.round);
  a(v.count);
  a(v.target);
}

template <typename A>
void persist_fields(A& a, LossWindow& v) {
  a(v.begin);
  a(v.end);
  a(v.rate);
  a(v.scope);
  a(v.domain);
}

template <typename A>
void persist_fields(A& a, PartitionWindow& v) {
  a(v.begin);
  a(v.end);
  a(v.scope);
  a(v.domain);
}

template <typename A>
void persist_fields(A& a, ByzantineWindow& v) {
  a(v.begin);
  a(v.end);
  a(v.fraction);
  a(v.kind);
}

template <typename A>
void persist_fields(A& a, WorkloadSpec& v) {
  a(v.begin);
  a(v.end);
  a(v.rate);
  a(v.keys);
  a(v.zipf);
  a(v.put_fraction);
  a(v.replicas);
  a(v.timeout);
  a(v.prefill);
}

template <typename A>
void persist_fields(A& a, Scenario& v) {
  a(v.name);
  a(v.n_guests);
  a(v.host_counts);
  a(v.families);
  a(v.seed_lo);
  a(v.seed_hi);
  a(v.target);
  a(v.delay);
  a(v.delay_model);
  a(v.racks);
  a(v.zones);
  a(v.start);
  a(v.max_rounds);
  a(v.events);
  a(v.losses);
  a(v.partitions);
  a(v.byzantine);
  a(v.series_stride);
  a(v.series_cap);
  a(v.workload);
}

template <typename A>
void persist_fields(A& a, JobSpec& v) {
  a(v.index);
  a(v.family);
  a(v.n_hosts);
  a(v.seed);
}

template <typename A>
void persist_fields(A& a, EventOutcome& v) {
  a(v.kind);
  a(v.round);
  a(v.recovery_rounds);
  a(v.recovered);
}

template <typename A>
void persist_fields(A& a, ByzWindowOutcome& v) {
  a(v.begin);
  a(v.end);
  a(v.kind);
  a(v.hosts);
  a(v.contained);
}

template <typename A>
void persist_fields(A& a, JobResult& v) {
  a(v.spec);
  a(v.setup_converged);
  a(v.setup_rounds);
  a(v.converged);
  a(v.rounds);
  a(v.messages);
  a(v.messages_dropped);
  a(v.resets);
  a(v.edge_adds);
  a(v.edge_dels);
  a(v.peak_degree);
  a(v.degree_expansion);
  a(v.events);
  a(v.oracle_armed);
  a(v.oracle_violation);
  a(v.oracle_round);
  a(v.oracle_rounds_checked);
  a(v.oracle_paths);
  a(v.adversary_armed);
  a(v.correct_converged);
  a(v.contained_violations);
  a(v.byz_windows);
  a(v.degree_trace);
  a(v.series_armed);
  a(v.series_stride);
  a(v.series);
  a(v.workload_armed);
  a(v.wl_issued);
  a(v.wl_completed);
  a(v.wl_timeouts);
  a(v.wl_retries);
  a(v.wl_hits);
  a(v.wl_drops);
  a(v.wl_peak_inflight);
  a(v.wl_p50);
  a(v.wl_p99);
}

}  // namespace chs::campaign

namespace chs::verify {

template <typename A>
void persist_fields(A& a, FailureSignature& v) {
  a(v.kind);
  a(v.invariant);
}

template <typename A>
void persist_fields(A& a, MinimizeResult& v) {
  a(v.scenario);
  a(v.replay);
  a(v.probes);
  a(v.steps);
}

}  // namespace chs::verify
