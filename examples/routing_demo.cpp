// Routing demo: what the finished overlay is *for*.
//
// Builds Avatar(Chord) and walks through greedy lookups step by step,
// printing the finger choices, then degrades the network with random host
// failures and shows lookups routing around them (and the bare Cbt tree
// falling apart at the same failure rate).
#include <cstdio>
#include <cstdlib>

#include "core/network.hpp"
#include "graph/generators.hpp"
#include "routing/lookup.hpp"
#include "util/bitops.hpp"

using namespace chs;
using topology::GuestId;

namespace {

void trace_lookup(const topology::TargetSpec& target, std::uint64_t n,
                  GuestId s, GuestId t) {
  std::printf("lookup %llu -> %llu:", static_cast<unsigned long long>(s),
              static_cast<unsigned long long>(t));
  int hops = 0;
  routing::greedy_walk(
      target, n, s, t, [](GuestId) { return true; },
      [&](GuestId, GuestId to) {
        std::printf(" %llu", static_cast<unsigned long long>(to));
        ++hops;
      });
  std::printf("   (%d hops, log N = %u)\n", hops, util::ceil_log2(n));
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t n_guests =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 256;
  const auto target = topology::chord_target();

  std::printf("== greedy lookups on Chord(%llu) ==\n",
              static_cast<unsigned long long>(n_guests));
  util::Rng rng(5);
  for (int i = 0; i < 4; ++i) {
    trace_lookup(target, n_guests, rng.next_below(n_guests),
                 rng.next_below(n_guests));
  }

  std::printf("\n== survival under failures ==\n");
  for (double frac : {0.0, 0.15, 0.3}) {
    std::vector<bool> alive(n_guests, true);
    util::Rng kr(9);
    for (std::size_t killed = 0;
         killed < static_cast<std::size_t>(frac * static_cast<double>(n_guests));) {
      const std::size_t v = kr.next_below(n_guests);
      if (alive[v]) {
        alive[v] = false;
        ++killed;
      }
    }
    const auto stats =
        routing::lookup_stats(target, n_guests, {}, 1000, kr, &alive);
    std::printf("%4.0f%% hosts dead: success %.3f, mean hops %.2f\n",
                frac * 100, stats.success_rate, stats.mean_guest_hops);
  }

  std::printf("\n== why the scaffold alone is not enough ==\n");
  std::vector<graph::NodeId> ids;
  for (graph::NodeId i = 0; i < 128; ++i) ids.push_back(i);
  util::Rng rr(13);
  const auto points = routing::robustness_sweep(ids, 128, {0.1, 0.3}, 5, rr);
  for (const auto& pt : points) {
    std::printf("%4.0f%% hosts dead: Chord keeps %.3f of pairs connected, "
                "bare Cbt tree only %.3f\n",
                pt.failed_fraction * 100, pt.chord_reachability,
                pt.cbt_reachability);
  }
  return 0;
}
