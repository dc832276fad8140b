// IntervalMap: a map from disjoint half-open u64 intervals to values.
//
// Hosts track "which host owns guest interval [a, b)" for their outgoing
// fingers (the image of a host's responsible range under +2^k is contiguous,
// so it intersects only a handful of other hosts' ranges). A sorted vector of
// interval starts gives O(log m) lookup and cheap in-order iteration; m stays
// small (O(log N) expected), so a flat representation beats node-based maps.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <vector>

namespace chs::util {

template <typename V>
class IntervalMap {
 public:
  struct Entry {
    std::uint64_t lo;  // inclusive
    std::uint64_t hi;  // exclusive
    V value;

    template <typename A>
    void persist_fields(A& a) {
      a(lo);
      a(hi);
      a(value);
    }
  };

  /// Insert [lo, hi) -> value, overwriting any overlapped portions of
  /// existing intervals (splitting them as needed). Splices in place: the
  /// run of entries overlapping or touching [lo, hi) is replaced by at most
  /// three pieces (left flank, new interval, right flank), with a flank of
  /// the same value merged into the new interval. Entries beyond the run
  /// neither touch it nor change, so the vector stays canonical.
  void assign(std::uint64_t lo, std::uint64_t hi, V value) {
    if (lo >= hi) return;
    const auto first = std::partition_point(
        entries_.begin(), entries_.end(),
        [lo](const Entry& e) { return e.hi < lo; });
    const auto last = std::partition_point(
        first, entries_.end(), [hi](const Entry& e) { return e.lo <= hi; });
    Entry pieces[3];
    std::size_t n = 0;
    if (first != last && first->lo < lo) {
      if (first->value == value) {
        lo = first->lo;
      } else {
        pieces[n++] = Entry{first->lo, lo, first->value};
      }
    }
    const std::size_t mid = n++;
    if (first != last && std::prev(last)->hi > hi) {
      const Entry& back = *std::prev(last);
      if (back.value == value) {
        hi = back.hi;
      } else {
        pieces[n++] = Entry{hi, back.hi, back.value};
      }
    }
    pieces[mid] = Entry{lo, hi, std::move(value)};
    const auto at = first - entries_.begin();
    const auto have = static_cast<std::size_t>(last - first);
    if (have < n) {
      entries_.insert(last, n - have, pieces[0]);  // overwritten below
    } else {
      entries_.erase(first + n, last);
    }
    std::move(pieces, pieces + n, entries_.begin() + at);
  }

  /// Entry covering point p, if any (for boundary-aligned iteration).
  const Entry* find_entry(std::uint64_t p) const {
    auto it = std::upper_bound(
        entries_.begin(), entries_.end(), p,
        [](std::uint64_t v, const Entry& e) { return v < e.lo; });
    if (it == entries_.begin()) return nullptr;
    --it;
    return p < it->hi ? &*it : nullptr;
  }

  /// Value covering point p, if any.
  std::optional<V> find(std::uint64_t p) const {
    auto it = std::upper_bound(
        entries_.begin(), entries_.end(), p,
        [](std::uint64_t v, const Entry& e) { return v < e.lo; });
    if (it == entries_.begin()) return std::nullopt;
    --it;
    if (p < it->hi) return it->value;
    return std::nullopt;
  }

  /// Remove all intervals (or interval portions) inside [lo, hi).
  void erase(std::uint64_t lo, std::uint64_t hi) {
    if (lo >= hi) return;
    std::vector<Entry> next;
    next.reserve(entries_.size() + 1);
    for (auto& e : entries_) {
      if (e.hi <= lo || e.lo >= hi) {
        next.push_back(std::move(e));
        continue;
      }
      if (e.lo < lo) next.push_back(Entry{e.lo, lo, e.value});
      if (e.hi > hi) next.push_back(Entry{hi, e.hi, e.value});
    }
    entries_ = std::move(next);
  }

  void clear() { entries_.clear(); }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  const std::vector<Entry>& entries() const { return entries_; }

  /// Resident bytes of the entry vector (capacity, not size).
  std::size_t capacity_bytes() const {
    return entries_.capacity() * sizeof(Entry);
  }

  /// Checkpoint/restore (DESIGN.md D9): the canonical (sorted, disjoint,
  /// coalesced) entry vector is the whole state.
  template <typename A>
  void persist_fields(A& a) {
    a(entries_);
  }

  /// True iff every point of [lo, hi) is covered by some interval.
  bool covers(std::uint64_t lo, std::uint64_t hi) const {
    std::uint64_t at = lo;
    for (const auto& e : entries_) {
      if (e.hi <= at) continue;
      if (e.lo > at) return false;
      at = e.hi;
      if (at >= hi) return true;
    }
    return at >= hi;
  }

 private:
  std::vector<Entry> entries_;  // sorted by lo, disjoint, coalesced
};

}  // namespace chs::util
