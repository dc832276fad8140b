// Calendar (bucket-ring) queue for round-scheduled events (DESIGN.md D5).
//
// The engine schedules three kinds of future work — delayed message
// deliveries, held self-messages, and node wakeups — all keyed by an
// absolute due round. The seed implementation kept a std::map<round, vector>
// *per node*, paying O(log k) per insert and a full map probe per node per
// round. This queue is shared across all nodes: a power-of-two ring of
// buckets indexed by `due & mask`, O(1) amortized insert and drain.
//
// Ordering contract: drain_due(r) visits the events due at round r in the
// exact order they were scheduled (global FIFO per due round). The engine's
// determinism guarantee depends on this, so redistribution on growth and
// lap-filtering both preserve insertion order.
//
// Far-future events: the ring grows (up to `max_buckets`) so that the
// common case never wraps. Events beyond the maximum horizon share a bucket
// with earlier laps and are filtered at drain time — correct, just slower,
// and only reachable with pathological hold delays.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace chs::sim {

template <typename Event>
class CalendarQueue {
 public:
  explicit CalendarQueue(std::size_t min_buckets = 64,
                         std::size_t max_buckets = 4096)
      : max_buckets_(ceil_pow2(std::max<std::size_t>(max_buckets, 2))) {
    buckets_.resize(ceil_pow2(std::max<std::size_t>(min_buckets, 2)));
  }

  /// Schedule `ev` for drain_due(due). `due` must be >= the next round to be
  /// drained (scheduling into the past would silently wait a full lap).
  void schedule(std::uint64_t due, Event ev) {
    CHS_DCHECK(due >= horizon_);
    if (due - horizon_ >= buckets_.size() && buckets_.size() < max_buckets_) {
      grow(due);
    }
    auto& b = buckets_[due & (buckets_.size() - 1)];
    b.push_back(Entry{due, std::move(ev)});
    peak_bucket_occupancy_ = std::max(peak_bucket_occupancy_, b.size());
    ++size_;
  }

  /// Invoke fn(Event&&) for every event due at `round`, in scheduling order.
  /// Rounds must be drained in nondecreasing order. `fn` must not call back
  /// into schedule() (the engine schedules only while stepping, never while
  /// releasing).
  template <typename F>
  void drain_due(std::uint64_t round, F&& fn) {
    CHS_DCHECK(round >= horizon_);
    horizon_ = round + 1;
    auto& b = buckets_[round & (buckets_.size() - 1)];
    if (b.empty()) return;
    std::size_t w = 0;
    for (std::size_t r = 0; r < b.size(); ++r) {
      if (b[r].due == round) {
        --size_;
        fn(std::move(b[r].ev));
      } else {
        if (w != r) b[w] = std::move(b[r]);
        ++w;
      }
    }
    b.resize(w);  // keeps capacity: the bucket arena is reused across laps
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Approximate resident bytes (bucket ring + entry capacities): the
  /// bytes_per_host accounting. O(buckets) — call on demand, not per round.
  std::size_t live_bytes() const {
    std::size_t b = buckets_.capacity() * sizeof(buckets_[0]);
    for (const auto& bucket : buckets_) b += bucket.capacity() * sizeof(Entry);
    return b;
  }

  std::size_t bucket_count() const { return buckets_.size(); }
  std::size_t peak_bucket_occupancy() const { return peak_bucket_occupancy_; }

  /// Read-only visit of every pending event, in unspecified order. Used by
  /// Engine::restore to range-check restored node indices before commit.
  template <typename F>
  void for_each_event(F&& fn) const {
    for (const auto& b : buckets_) {
      for (const auto& e : b) fn(e.ev);
    }
  }

  /// Checkpoint/restore (DESIGN.md D9). The bucket layout is serialized
  /// verbatim — bucket count, per-bucket entry order, horizon — because the
  /// drain order the determinism contract pins *is* that layout: two events
  /// sharing a bucket across laps must come back in the same relative order
  /// they were scheduled in, even mid-lap.
  template <typename A>
  void persist_fields(A& a) {
    a(max_buckets_);
    a(horizon_);
    a(size_);
    a(peak_bucket_occupancy_);
    a(buckets_);
    if constexpr (A::kIsReader) {
      // A corrupt-but-CRC-valid blob cannot smuggle a non-power-of-two ring
      // in: the mask arithmetic depends on it.
      if (buckets_.empty() || (buckets_.size() & (buckets_.size() - 1)) != 0) {
        a.fail("calendar bucket count is not a power of two");
        buckets_.assign(64, {});
      }
    }
  }

 private:
  struct Entry {
    std::uint64_t due;
    Event ev;

    template <typename A>
    void persist_fields(A& a) {
      a(due);
      a(ev);
    }
  };

  static std::size_t ceil_pow2(std::size_t v) {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  void grow(std::uint64_t due) {
    std::size_t want = buckets_.size();
    while (due - horizon_ >= want && want < max_buckets_) want <<= 1;
    std::vector<std::vector<Entry>> fresh(want);
    // Reinsert bucket by bucket; entries sharing a due round always share a
    // bucket, so their relative order survives redistribution.
    for (auto& b : buckets_) {
      for (auto& e : b) {
        fresh[e.due & (want - 1)].push_back(std::move(e));
      }
    }
    buckets_ = std::move(fresh);
  }

  std::vector<std::vector<Entry>> buckets_;
  std::size_t max_buckets_;
  std::uint64_t horizon_ = 0;  // lowest round that may still be drained
  std::size_t size_ = 0;
  std::size_t peak_bucket_occupancy_ = 0;
};

}  // namespace chs::sim
