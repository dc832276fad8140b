// Message vocabulary of the stabilizer protocol.
//
// Everything is a small POD inside one std::variant; the simulator copies
// messages by value. Self-addressed holds (sim::NodeCtx::hold) reuse the same
// structs: a WaveTick is "my fragment may be complete now", a ZipPhase2 is
// "run the second half of the zip introduction dance".
#pragma once

#include <cstdint>
#include <variant>

#include "stabilizer/state.hpp"

namespace chs::stabilizer {

struct WaveMeta {
  WaveId id;
  NodeId cluster = kNone;  // cluster the wave belongs to
};

/// Propagate: wave enters the fragment rooted at `entry`.
struct MWaveDown {
  WaveMeta meta;
  GuestId entry = 0;
};

/// Deferred forwarding of a propagate across an out-edge (per-guest-hop
/// pacing holds this back until the wave front reaches the edge's depth).
struct MWaveFwd {
  WaveMeta meta;
  GuestId child_pos = 0;
};

/// Feedback: the subtree hanging below `child_pos` (an out-edge of the
/// receiver) has completed the wave.
struct MWaveUp {
  WaveMeta meta;
  GuestId child_pos = 0;
  WaveAgg agg;
};

/// Self-reminder to re-check a fragment's completion condition.
struct MWaveTick {
  WaveMeta meta;
  GuestId entry = 0;
};

/// Ring closure for MakeFinger(0): tells the min/max member who hosts the
/// other end of the (N-1, 0) guest edge.
struct MRingNote {
  NodeId min_host = kNone;
  NodeId max_host = kNone;
};

/// Finger bookkeeping: "the hosts of guest interval [tlo, thi) at finger
/// level k are `host`" — fwd=true updates the receiver's fwd map, else rev.
struct MFingerNote {
  std::int32_t k = 0;
  std::uint64_t tlo = 0, thi = 0;
  NodeId host = kNone;
  bool fwd = true;
};

// --- Matching epoch ---------------------------------------------------------

/// Retraces the poll wave toward the member owning the sampled external edge;
/// each hop introduces the next host to the follower root `froot`.
struct MFollowGo {
  std::uint64_t nonce = 0;
  NodeId froot = kNone;
  GuestId entry = 0;  // fragment entry at the receiving host
};

/// A follower's merge request travelling up the foreign cluster's tree.
struct MMergeReqHop {
  NodeId froot = kNone;
};

/// Leader tells a follower root whom to merge with (peer may be the leader).
/// The nonce is generated by the leader and shared by both merge partners.
struct MMatchGrant {
  NodeId peer = kNone;
  std::uint64_t nonce = 0;
};

struct MMergePropose {
  std::uint64_t nonce = 0;
  NodeId my_cluster = kNone;
};

struct MMergeAck {
  std::uint64_t nonce = 0;
  bool accept = false;
};

// --- Merge zip ---------------------------------------------------------------

/// Parent-step participant tells its own-side child candidate to start the
/// step for `iv` against `peer`.
struct MZipStart {
  std::uint64_t nonce = 0;
  CbtInterval iv{0, 0};
  NodeId peer = kNone;
  NodeId peer_cluster = kNone;  // root id of the other merging cluster
  NodeId parent_winner = kNone;
};

/// The pairwise exchange between the two candidates of a step.
struct MZipStep {
  std::uint64_t nonce = 0;
  CbtInterval iv{0, 0};
  std::uint64_t lo = 0, hi = 0;             // sender's responsible range
  NodeId child_left = kNone;                // sender-side candidate for iv.left()
  NodeId child_right = kNone;               // sender-side candidate for iv.right()
  NodeId parent_winner = kNone;
  NodeId my_cluster = kNone;                // sender's cluster root id
};

/// Self-hold: second round of the introduction dance for step `pos`.
struct MZipPhase2 {
  std::uint64_t nonce = 0;
  GuestId pos = 0;
};

/// Subtree below `pos` fully resolved (flows to the parent-step winner, who
/// records the sender as its new boundary host for `pos`).
struct MZipDone {
  std::uint64_t nonce = 0;
  GuestId pos = 0;
};

/// Commit flood down the merged cluster's new tree.
struct MMergeCommit {
  std::uint64_t nonce = 0;
  NodeId new_cluster = kNone;
};

// Variant order doubles as the per-round processing priority: control
// messages (grants, zip starts) are handled before the data messages that
// may arrive in the same round and depend on them.
using Message =
    std::variant<MRingNote, MFingerNote, MMatchGrant, MMergePropose, MMergeAck,
                 MMergeCommit, MZipStart, MZipStep, MZipPhase2, MZipDone,
                 MFollowGo, MMergeReqHop, MWaveDown, MWaveFwd, MWaveUp,
                 MWaveTick>;

}  // namespace chs::stabilizer
