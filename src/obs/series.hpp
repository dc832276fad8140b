// Deterministic round-indexed time-series recorder (DESIGN.md D12).
//
// Campaign reports reduce a job to end-of-run scalars; the series recorder
// keeps the shape of the run — what the network looked like *during* the
// heal, the attack window, the rack funeral — as a bounded sequence of
// per-window samples over the adversarial timeline.
//
// Determinism contract: every input is a deterministic counter (engine
// RunMetrics cumulatives, oracle containment counters, the scenario's
// window schedule), sampling is indexed by timeline round, and the
// downsampling policy is a pure function of the sample count — so the
// recorded series is byte-identical at any --jobs/--workers value and
// across checkpoint/resume (the recorder's complete state round-trips via
// persist_fields; see the OBSR section in campaign/runner.cpp). Wall-clock
// data is banned here by construction — that belongs to sim/profile.hpp.
//
// Bounded memory: samples land in a ring of capacity `cap` (a power of
// two). When the ring fills, adjacent samples are merged pairwise (counters
// sum, gauges max: one fold over the kSeriesColumns table) and the
// effective stride doubles — a million-round soak still costs at most `cap`
// samples, with resolution degrading gracefully from the front of the run
// backwards.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/metrics.hpp"

namespace chs::obs {

/// The series' one record. The recorder takes it in as a cumulative
/// reading (counters since the run began, gauges as of now) and puts it out
/// as one window of `stride` timeline rounds ending at `round`: counters as
/// deltas summed over the window, gauges as their max over the window, so
/// downsampling never invents activity. kSeriesColumns below says which
/// field is which; every loop over the columns reads that table.
struct SeriesSample {
  std::uint64_t round = 0;      // timeline round the window ends at
  std::uint64_t active = 0;     // host-steps: nodes stepped, summed
  std::uint64_t actions = 0;    // protocol actions (sends/holds/edges)
  std::uint64_t messages = 0;   // network messages sent
  std::uint64_t dropped = 0;    // deliveries suppressed (loss/partition)
  std::uint64_t snapshots = 0;  // dirty snapshots published
  std::uint64_t contained = 0;  // oracle violations blamed on the adversary
  std::uint64_t violations = 0;  // real (unattributed) oracle violations
  std::uint64_t windows_open = 0;  // byzantine windows open (gauge)

  // Serving-layer columns (DESIGN.md D13), populated only when a workload
  // is armed; zero/empty otherwise so non-workload reports are unchanged.
  std::uint64_t ops_issued = 0;     // client ops injected
  std::uint64_t ops_completed = 0;  // ops answered (ack / reply, either way)
  std::uint64_t ops_timeout = 0;    // ops that exhausted every retry
  std::uint64_t ops_retried = 0;    // replica-failover re-issues
  std::uint64_t inflight = 0;       // concurrent in-flight ops (gauge)
  std::uint64_t kv_messages = 0;    // data-plane network messages
  // Completion-latency histogram: bucket i counts ops that completed in
  // [2^i, 2^(i+1)) rounds (bucket 0 is [0,2), the last bucket is open).
  // Log-bucketed counters sum exactly under pair-merge downsampling, which
  // is what keeps per-window p50/p99 meaningful after stride doubling.
  std::vector<std::uint64_t> lat_hist;

  bool operator==(const SeriesSample&) const = default;

  template <typename A>
  void persist_fields(A& a);
};

/// How a column reduces over a window: a counter is cumulative in the
/// reading and summed in the window; a gauge is read as-is and maxed.
enum class ColumnKind : std::uint8_t { kCounter, kGauge };
/// Which layer a column describes. Workload columns reach the report only
/// when the scenario arms a workload, so other reports keep their bytes.
enum class Plane : std::uint8_t { kControl, kWorkload };

struct SeriesColumn {
  const char* key;  // JSON key and CSV header
  std::uint64_t SeriesSample::*field;
  ColumnKind kind;
  Plane plane;
};

/// Every scalar column, in report (and checkpoint) order. Adding a column
/// is one SeriesSample field plus one row here; a new row changes report
/// bytes, so gate it (as the workload plane is gated) to keep the goldens.
inline constexpr SeriesColumn kSeriesColumns[] = {
    {"active", &SeriesSample::active, ColumnKind::kCounter, Plane::kControl},
    {"actions", &SeriesSample::actions, ColumnKind::kCounter, Plane::kControl},
    {"messages", &SeriesSample::messages, ColumnKind::kCounter,
     Plane::kControl},
    {"dropped", &SeriesSample::dropped, ColumnKind::kCounter, Plane::kControl},
    {"snapshots", &SeriesSample::snapshots, ColumnKind::kCounter,
     Plane::kControl},
    {"contained", &SeriesSample::contained, ColumnKind::kCounter,
     Plane::kControl},
    {"violations", &SeriesSample::violations, ColumnKind::kCounter,
     Plane::kControl},
    {"windows_open", &SeriesSample::windows_open, ColumnKind::kGauge,
     Plane::kControl},
    {"issued", &SeriesSample::ops_issued, ColumnKind::kCounter,
     Plane::kWorkload},
    {"completed", &SeriesSample::ops_completed, ColumnKind::kCounter,
     Plane::kWorkload},
    {"timeouts", &SeriesSample::ops_timeout, ColumnKind::kCounter,
     Plane::kWorkload},
    {"retried", &SeriesSample::ops_retried, ColumnKind::kCounter,
     Plane::kWorkload},
    {"inflight", &SeriesSample::inflight, ColumnKind::kGauge,
     Plane::kWorkload},
    {"kv_messages", &SeriesSample::kv_messages, ColumnKind::kCounter,
     Plane::kWorkload},
};

template <typename A>
void SeriesSample::persist_fields(A& a) {
  a(round);
  for (const SeriesColumn& c : kSeriesColumns) a(this->*c.field);
  a(lat_hist);
}

/// Number of log2 latency buckets (latencies above 2^15 rounds saturate).
inline constexpr std::size_t kLatBuckets = 16;

/// Bucket index for a completion latency in rounds.
std::size_t lat_bucket(std::uint64_t rounds);

/// Quantile upper bound from a log2 histogram: the inclusive upper edge
/// (2^(i+1) - 1) of the first bucket where the cumulative count reaches
/// q * total, with q in per-myriad (5000 = p50, 9900 = p99). Returns 0 for
/// an empty histogram.
std::uint64_t lat_quantile(const std::vector<std::uint64_t>& hist,
                           std::uint64_t q_myriad);

/// Fraction of settled ops that completed (vs timed out); 1 when nothing
/// settled. Ops still in flight are in neither bucket, so a window's number
/// reflects only outcomes decided inside it.
double availability(std::uint64_t completed, std::uint64_t timeouts);

/// A column the report computes from a window instead of recording it.
/// Derived columns follow the recorded ones; `fraction` columns print with
/// four decimals, the others as integers.
struct DerivedColumn {
  const char* key;
  double (*of)(const SeriesSample&);
  Plane plane;
  bool fraction;
};

inline constexpr DerivedColumn kDerivedColumns[] = {
    {"lat_p50",
     [](const SeriesSample& s) {
       return static_cast<double>(lat_quantile(s.lat_hist, 5000));
     },
     Plane::kWorkload, false},
    {"lat_p99",
     [](const SeriesSample& s) {
       return static_cast<double>(lat_quantile(s.lat_hist, 9900));
     },
     Plane::kWorkload, false},
    {"availability",
     [](const SeriesSample& s) {
       return availability(s.ops_completed, s.ops_timeout);
     },
     Plane::kWorkload, true},
};

/// Folds `b` into `into` column by column: a counter adds `b - base`, a
/// gauge takes the max with `b` (`base` plays no part), and the latency
/// histogram adds bucket-wise like a counter. With `base` a cumulative
/// reading this is the per-round delta; with an empty `base` it is the
/// pair-merge rule (counters sum, gauges max).
void fold(SeriesSample& into, const SeriesSample& b, const SeriesSample& base);

/// The engine's cumulative counters as a series reading (hosts stepped,
/// actions, messages sent and dropped, snapshots published). The caller
/// adds what the engine does not know: oracle counts, gauges, workload.
inline SeriesSample engine_reading(const sim::RunMetrics& m) {
  SeriesSample r;
  r.active = m.nodes_stepped();
  r.actions = m.round_actions();
  r.messages = m.messages();
  r.dropped = m.messages_dropped();
  r.snapshots = m.snapshots_published();
  return r;
}

class SeriesRecorder {
 public:
  SeriesRecorder() = default;
  /// `stride` timeline rounds per sample (>= 1); `cap` ring capacity, a
  /// power of two >= 2 (campaign::Scenario::validate enforces both).
  SeriesRecorder(std::uint64_t stride, std::uint64_t cap);

  /// Set the delta baselines without recording — call once when the
  /// timeline starts, with the reading at timeline round 0.
  void prime(const SeriesSample& reading) { prev_ = reading; }

  /// Record timeline round `t` (the round that just executed): fold the
  /// reading's deltas and gauges into the open window, close the window
  /// when it reaches the effective stride, and downsample when the ring
  /// fills.
  void on_round(std::uint64_t t, const SeriesSample& reading);

  /// Close a partially filled final window (job end). Idempotent per
  /// window: a flush with nothing accumulated records nothing.
  void flush(std::uint64_t t);

  const std::vector<SeriesSample>& samples() const { return samples_; }
  /// Rounds per sample after downsampling (>= the configured stride).
  std::uint64_t effective_stride() const { return eff_stride_; }
  std::uint64_t configured_stride() const { return stride_; }
  std::uint64_t capacity() const { return cap_; }

  /// Complete dynamic state (DESIGN.md D9): the ring, the open window, the
  /// delta baselines, and the stride ladder all round-trip, so a resumed
  /// job's series is bit-for-bit the uninterrupted run's.
  template <typename A>
  void persist_fields(A& a) {
    a(stride_);
    a(cap_);
    a(eff_stride_);
    a(bucket_rounds_);
    a(bucket_);
    a(prev_);
    a(samples_);
  }

 private:
  std::uint64_t stride_ = 1;
  std::uint64_t cap_ = 256;
  std::uint64_t eff_stride_ = 1;
  std::uint64_t bucket_rounds_ = 0;  // rounds accumulated in the open window
  SeriesSample bucket_;
  SeriesSample prev_;  // the last reading: the delta baseline
  std::vector<SeriesSample> samples_;

  void close_bucket(std::uint64_t t);
};

}  // namespace chs::obs
