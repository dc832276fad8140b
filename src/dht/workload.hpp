// Open-loop serving workload over the KV data plane (DESIGN.md D13).
//
// The WorkloadDriver is the data plane's only client. It runs open loop so
// that it can measure what the paper's overlay buys an application *during*
// churn: every timeline round it injects `rate` client ops (Zipf key
// popularity, put/get mix) into a KV engine snapshotted from the converged
// network, steps that engine exactly one round, and drains completions — so
// arrival rate never adapts to latency, in-flight ops pile up against slow
// routes, and per-window latency/availability series mean what an SLO
// dashboard would mean.
//
// Determinism contract (the campaign bar): all randomness comes from salted
// streams split from the job seed, the in-flight table is an ordered map,
// every per-round scan iterates in id order, and the complete dynamic state
// round-trips via persist_fields + the engine blob — so reports are byte-
// identical at any worker count and across mid-workload checkpoint/resume.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dht/kvstore.hpp"
#include "obs/series.hpp"

namespace chs::dht {

/// Zipf(s) sampler over ranks [0, n) via Hörmann–Derflinger rejection-
/// inversion: O(1) per draw with no table, exact for any s >= 0 (s == 0
/// degenerates to uniform). Deterministic given the RNG stream.
class ZipfSampler {
 public:
  ZipfSampler() = default;
  ZipfSampler(std::uint64_t n, double s);

  std::uint64_t operator()(util::Rng& rng) const;

 private:
  double h(double x) const;
  double h_inv(double u) const;

  std::uint64_t n_ = 1;
  double s_ = 0.0;
  double h_x1_ = 0.0;       // h(1.5) - 1
  double h_n_ = 0.0;        // h(n + 0.5)
  double threshold_ = 0.0;  // 2 - h_inv(h(2.5) - 2^-s)
};

/// Driver-side configuration, mirrored from campaign::WorkloadSpec by the
/// job runner (kept separate so the data plane stays below the campaign
/// layer in the dependency order).
struct WorkloadConfig {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t rate = 0;
  std::uint64_t keys = 1024;
  double zipf = 0.0;
  double put_fraction = 0.0;
  std::uint32_t replicas = 1;
  std::uint64_t timeout = 0;  // per-attempt rounds; 0 = auto from N and delay
  std::uint64_t prefill = 0;
};

/// One client op awaiting completion. Persisted (persist/fields.hpp) as the
/// in-flight table in job checkpoint blobs; the deadline ring is derived
/// from this table on restore.
struct InFlightOp {
  std::uint8_t kind = 0;  // 0 = get, 1 = put
  std::uint64_t key = 0;
  graph::NodeId client = KvProtocol::kNoneHost;
  std::uint64_t issued_at = 0;  // timeline round of the *first* attempt
  std::uint64_t deadline = 0;   // timeline round the open attempt expires
  std::uint32_t attempt = 0;    // replica position the open attempt targets
  std::uint32_t acks_pending = 0;  // puts: replica acks still outstanding

  bool operator==(const InFlightOp&) const = default;
};

/// Whole-run workload totals for the campaign report.
struct WorkloadTotals {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t retries = 0;
  std::uint64_t hits = 0;          // get completions that found the value
  std::uint64_t peak_inflight = 0;
};

class WorkloadDriver {
 public:
  /// Cold start at timeline round 0: snapshot the (converged) stabilizer
  /// engine into a fresh KV plane, prefill stores, and derive the RNG
  /// streams from the job seed.
  WorkloadDriver(const core::StabEngine& src, const WorkloadConfig& cfg,
                 std::uint64_t job_seed, std::uint32_t max_delay);

  /// Restore path: a bare KV engine over `ids` (same id set the checkpoint
  /// was taken over). Engine state arrives via restore_engine(), driver
  /// state via persist_fields, derived structures via finish_restore().
  WorkloadDriver(const std::vector<graph::NodeId>& ids, std::uint64_t n_guests,
                 const WorkloadConfig& cfg, std::uint32_t max_delay);

  /// Restore the KV engine from a full checkpoint blob (KVDP section).
  persist::Status restore_engine(const std::vector<std::uint8_t>& blob);
  /// Rebuild the deadline ring and serving caches after persist_fields +
  /// restore_engine have run.
  void finish_restore();

  /// Execute one timeline round `t` against the current control-plane state:
  /// mirror serving flips from `src` into the data plane, expire deadlines
  /// (retry or count a timeout), inject this round's arrivals, step the KV
  /// engine one round, and drain completions.
  void on_timeline_round(std::uint64_t t, const core::StabEngine& src);

  /// True once injection is over and the in-flight table has drained — the
  /// job's finish condition includes this.
  bool idle(std::uint64_t t) const {
    return t >= cfg_.end && inflight_.empty();
  }

  /// Fill the workload columns (and the in-flight gauge) of the job's
  /// series reading.
  void fill_reading(obs::SeriesSample& r) const;

  std::uint64_t inflight() const {
    return static_cast<std::uint64_t>(inflight_.size());
  }
  const WorkloadTotals& totals() const { return totals_; }
  /// Cumulative completion-latency histogram (log2 buckets) over the run.
  const std::vector<std::uint64_t>& lat_hist() const { return lat_hist_; }
  std::uint64_t drops() const { return total_drops(*kv_); }

  KvEngine& engine() { return *kv_; }
  const KvEngine& engine() const { return *kv_; }
  /// Loss stream for the data plane's delivery filter (installed by the job
  /// runner so scenario loss/partition windows hit client traffic too,
  /// without disturbing the control plane's draw sequence).
  util::Rng& loss_rng() { return loss_rng_; }

  /// Dynamic state (DESIGN.md D9): RNG streams, the op counter, the
  /// in-flight table, and the cumulative counters. The KV engine itself is
  /// checkpointed separately as a full engine blob.
  template <typename A>
  void persist_fields(A& a) {
    a(rng_);
    a(loss_rng_);
    a(next_op_);
    a(inflight_);
    a(totals_.issued);
    a(totals_.completed);
    a(totals_.timeouts);
    a(totals_.retries);
    a(totals_.hits);
    a(totals_.peak_inflight);
    a(lat_hist_);
  }

 private:
  void refresh_serving(const core::StabEngine& src);
  void rebuild_serving_from_kv();
  void issue_attempt(std::uint64_t op_id, InFlightOp& op, std::uint64_t t);
  void inject(std::uint64_t t);
  void expire(std::uint64_t t);
  void drain(std::uint64_t t);
  std::uint64_t attempt_timeout() const;

  WorkloadConfig cfg_;
  std::uint32_t max_delay_ = 1;
  std::unique_ptr<KvEngine> kv_;
  ZipfSampler zipf_;
  util::Rng rng_;       // key / kind / client draws
  util::Rng loss_rng_;  // data-plane delivery-filter stream
  std::uint64_t next_op_ = 1;
  std::map<std::uint64_t, InFlightOp> inflight_;  // op id -> op (ordered)
  WorkloadTotals totals_;
  std::vector<std::uint64_t> lat_hist_;  // cumulative log2 buckets

  // Derived, rebuilt on restore (never persisted):
  std::map<std::uint64_t, std::vector<std::uint64_t>> ring_;  // deadline -> ops
  std::vector<std::uint8_t> serving_;       // by node index: phase == done
  std::vector<graph::NodeId> serving_ids_;  // sorted live clients
  // (lo, host) for every host with a non-empty range, sorted by lo — the
  // ranges partition the converged guest space, so prefill and client checks
  // resolve responsibility by binary search.
  std::vector<std::pair<std::uint64_t, graph::NodeId>> range_index_;
};

}  // namespace chs::dht
