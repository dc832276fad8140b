#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "util/bitops.hpp"
#include "util/interval_map.hpp"
#include "util/rng.hpp"

namespace chs {
namespace {

TEST(Bitops, CeilLog2) {
  EXPECT_EQ(util::ceil_log2(0), 0u);
  EXPECT_EQ(util::ceil_log2(1), 0u);
  EXPECT_EQ(util::ceil_log2(2), 1u);
  EXPECT_EQ(util::ceil_log2(3), 2u);
  EXPECT_EQ(util::ceil_log2(4), 2u);
  EXPECT_EQ(util::ceil_log2(5), 3u);
  EXPECT_EQ(util::ceil_log2(1023), 10u);
  EXPECT_EQ(util::ceil_log2(1024), 10u);
  EXPECT_EQ(util::ceil_log2(1025), 11u);
  EXPECT_EQ(util::ceil_log2(std::uint64_t{1} << 63), 63u);
}

TEST(Bitops, FloorLog2) {
  EXPECT_EQ(util::floor_log2(1), 0u);
  EXPECT_EQ(util::floor_log2(2), 1u);
  EXPECT_EQ(util::floor_log2(3), 1u);
  EXPECT_EQ(util::floor_log2(4), 2u);
  EXPECT_EQ(util::floor_log2(1023), 9u);
  EXPECT_EQ(util::floor_log2(1024), 10u);
}

TEST(Bitops, IsPow2NextPow2) {
  EXPECT_FALSE(util::is_pow2(0));
  EXPECT_TRUE(util::is_pow2(1));
  EXPECT_TRUE(util::is_pow2(2));
  EXPECT_FALSE(util::is_pow2(3));
  EXPECT_TRUE(util::is_pow2(1024));
  EXPECT_EQ(util::next_pow2(0), 1u);
  EXPECT_EQ(util::next_pow2(1), 1u);
  EXPECT_EQ(util::next_pow2(3), 4u);
  EXPECT_EQ(util::next_pow2(1024), 1024u);
  EXPECT_EQ(util::next_pow2(1025), 2048u);
}

TEST(Bitops, ChordFingerCountMatchesDefinition1) {
  // Definition 1: 0 <= k < log N - 1 fingers.
  EXPECT_EQ(util::chord_num_fingers(8), 2u);
  EXPECT_EQ(util::chord_num_fingers(16), 3u);
  EXPECT_EQ(util::chord_num_fingers(1024), 9u);
  EXPECT_EQ(util::chord_num_fingers(2), 0u);
}

TEST(Bitops, PifWaveBound) {
  // 2 * (log N + 1).
  EXPECT_EQ(util::pif_wave_round_bound(16), 10u);
  EXPECT_EQ(util::pif_wave_round_bound(1024), 22u);
}

TEST(Rng, DeterministicAndSeedSensitive) {
  util::Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto x = a.next_u64();
    EXPECT_EQ(x, b.next_u64());
  }
  bool differs = false;
  util::Rng a2(42);
  for (int i = 0; i < 10; ++i) differs |= (a2.next_u64() != c.next_u64());
  EXPECT_TRUE(differs);
}

TEST(Rng, NextBelowInRangeAndCoversValues) {
  util::Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.next_below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, SplitStreamsAreIndependent) {
  util::Rng root(99);
  auto s1 = root.split(1);
  auto s2 = root.split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (s1.next_u64() == s2.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, SplitStreamsAreNotShiftedCopies) {
  // Regression for the matching livelock (lollipop n=20 N=128 seed=3):
  // split() used to combine the raw `stream * kGolden`, where kGolden is
  // also SplitMix64's own state increment — all streams live on the one
  // orbit, and that scheme parked ids s and s + k exactly k steps apart
  // whenever the xor with the parent state carried like an addition. Seed
  // 3 with ids 42 and 54 (the two surviving cluster roots) was such a
  // pair: stream 54 replayed stream 42's exact draws 12 steps later, so
  // both roots flipped identical leader/follower coins and drew identical
  // epoch jitter forever, and no merge could ever form. Splits must not
  // be lag-correlated for any small id delta.
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 7ULL, 41ULL}) {
    util::Rng root(seed);
    for (std::uint64_t a : {0ULL, 1ULL, 42ULL, 54ULL, 100ULL}) {
      for (std::uint64_t delta : {1ULL, 2ULL, 12ULL, 32ULL}) {
        auto sa = root.split(a);
        auto sb = root.split(a + delta);
        std::uint64_t da[96], db[96];
        for (int i = 0; i < 96; ++i) {
          da[i] = sa.next_u64();
          db[i] = sb.next_u64();
        }
        for (int lag = 0; lag <= 64; ++lag) {
          bool ab = true, ba = true;
          for (int i = 0; i + lag < 96; ++i) {
            ab = ab && da[i + lag] == db[i];
            ba = ba && db[i + lag] == da[i];
          }
          EXPECT_FALSE(ab) << "seed " << seed << " ids " << a << "/"
                           << a + delta << " lag " << lag;
          EXPECT_FALSE(ba) << "seed " << seed << " ids " << a << "/"
                           << a + delta << " lag " << lag;
        }
      }
    }
  }
}

TEST(Rng, BernoulliRoughlyFair) {
  util::Rng r(1);
  int heads = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) heads += r.next_bool();
  EXPECT_NEAR(static_cast<double>(heads) / trials, 0.5, 0.02);
}

TEST(IntervalMap, AssignAndFind) {
  util::IntervalMap<int> m;
  m.assign(10, 20, 1);
  EXPECT_FALSE(m.find(9).has_value());
  EXPECT_EQ(m.find(10).value(), 1);
  EXPECT_EQ(m.find(19).value(), 1);
  EXPECT_FALSE(m.find(20).has_value());
}

TEST(IntervalMap, OverwriteSplitsExisting) {
  util::IntervalMap<int> m;
  m.assign(0, 100, 1);
  m.assign(40, 60, 2);
  EXPECT_EQ(m.find(39).value(), 1);
  EXPECT_EQ(m.find(40).value(), 2);
  EXPECT_EQ(m.find(59).value(), 2);
  EXPECT_EQ(m.find(60).value(), 1);
  EXPECT_EQ(m.size(), 3u);
}

TEST(IntervalMap, CoalescesEqualAdjacent) {
  util::IntervalMap<int> m;
  m.assign(0, 10, 5);
  m.assign(10, 20, 5);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.covers(0, 20));
}

TEST(IntervalMap, EraseCutsHoles) {
  util::IntervalMap<int> m;
  m.assign(0, 100, 7);
  m.erase(25, 75);
  EXPECT_TRUE(m.find(24).has_value());
  EXPECT_FALSE(m.find(25).has_value());
  EXPECT_FALSE(m.find(74).has_value());
  EXPECT_TRUE(m.find(75).has_value());
  EXPECT_FALSE(m.covers(0, 100));
  EXPECT_TRUE(m.covers(0, 25));
}

TEST(IntervalMap, CoversDetectsGaps) {
  util::IntervalMap<int> m;
  m.assign(0, 10, 1);
  m.assign(20, 30, 1);
  EXPECT_FALSE(m.covers(0, 30));
  m.assign(10, 20, 2);
  EXPECT_TRUE(m.covers(0, 30));
}

// The maximal equal-value runs of a point map: the canonical entry list
// (sorted, disjoint, no two touching entries with one value) that an
// IntervalMap holding the same points must have, and the bytes it persists.
std::vector<util::IntervalMap<int>::Entry> canonical_runs(
    const std::map<std::uint64_t, int>& ref) {
  std::vector<util::IntervalMap<int>::Entry> runs;
  for (const auto& [p, v] : ref) {
    if (!runs.empty() && runs.back().hi == p && runs.back().value == v) {
      ++runs.back().hi;
    } else {
      runs.push_back({p, p + 1, v});
    }
  }
  return runs;
}

// Random ops over [0, 200) checked against a point map after every op: each
// sampled point's value, and the whole entry list against canonical_runs.
// `erase_too` mixes erases in; `values` sets how often neighbors share one.
void run_against_reference(std::uint64_t seed, bool erase_too, int values) {
  util::IntervalMap<int> m;
  std::map<std::uint64_t, int> ref;  // point -> value over [0, 200)
  util::Rng rng(seed);
  for (int step = 0; step < 300; ++step) {
    std::uint64_t a = rng.next_below(200), b = rng.next_below(200);
    if (a > b) std::swap(a, b);
    const int v = static_cast<int>(rng.next_below(values));
    if (!erase_too || rng.next_bool()) {
      m.assign(a, b, v);
      for (auto p = a; p < b; ++p) ref[p] = v;
    } else {
      m.erase(a, b);
      for (auto p = a; p < b; ++p) ref.erase(p);
    }
    for (std::uint64_t p = 0; p < 200; p += 7) {
      const auto got = m.find(p);
      const auto it = ref.find(p);
      if (it == ref.end()) {
        ASSERT_FALSE(got.has_value()) << "point " << p << " step " << step;
      } else {
        ASSERT_TRUE(got.has_value()) << "point " << p << " step " << step;
        ASSERT_EQ(*got, it->second) << "point " << p << " step " << step;
      }
    }
    const auto want = canonical_runs(ref);
    const auto& got = m.entries();
    ASSERT_EQ(got.size(), want.size()) << "step " << step;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].lo, want[i].lo) << "entry " << i << " step " << step;
      ASSERT_EQ(got[i].hi, want[i].hi) << "entry " << i << " step " << step;
      ASSERT_EQ(got[i].value, want[i].value)
          << "entry " << i << " step " << step;
    }
  }
}

TEST(IntervalMap, RandomizedAgainstReferenceMap) {
  run_against_reference(123, /*erase_too=*/true, /*values=*/5);
  // Assign only, two values: most assigns land beside an entry of their own
  // value, so the splice merges on the left, the right, and both sides.
  run_against_reference(321, /*erase_too=*/false, /*values=*/2);
}

}  // namespace
}  // namespace chs
