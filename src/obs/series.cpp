#include "obs/series.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace chs::obs {

std::size_t lat_bucket(std::uint64_t rounds) {
  std::size_t b = 0;
  while (b + 1 < kLatBuckets && rounds >= (std::uint64_t{2} << b)) ++b;
  return b;
}

std::uint64_t lat_quantile(const std::vector<std::uint64_t>& hist,
                           std::uint64_t q_myriad) {
  std::uint64_t total = 0;
  for (std::uint64_t c : hist) total += c;
  if (total == 0) return 0;
  // Smallest bucket whose cumulative count covers the quantile (ceiling
  // division keeps this exact in integers).
  const std::uint64_t need = (total * q_myriad + 9999) / 10000;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < hist.size(); ++i) {
    cum += hist[i];
    if (cum >= need) return (std::uint64_t{2} << i) - 1;
  }
  return (std::uint64_t{2} << (hist.size() - 1)) - 1;
}

double availability(std::uint64_t completed, std::uint64_t timeouts) {
  const std::uint64_t settled = completed + timeouts;
  return settled == 0
             ? 1.0
             : static_cast<double>(completed) / static_cast<double>(settled);
}

void fold(SeriesSample& into, const SeriesSample& b,
          const SeriesSample& base) {
  for (const SeriesColumn& c : kSeriesColumns) {
    std::uint64_t& v = into.*c.field;
    v = c.kind == ColumnKind::kCounter ? v + (b.*c.field - base.*c.field)
                                       : std::max(v, b.*c.field);
  }
  // Histogram sizes match or are empty: a reading's never shrinks.
  if (into.lat_hist.size() < b.lat_hist.size()) {
    into.lat_hist.resize(b.lat_hist.size(), 0);
  }
  for (std::size_t i = 0; i < b.lat_hist.size(); ++i) {
    into.lat_hist[i] +=
        b.lat_hist[i] - (i < base.lat_hist.size() ? base.lat_hist[i] : 0);
  }
}

SeriesRecorder::SeriesRecorder(std::uint64_t stride, std::uint64_t cap)
    : stride_(stride), cap_(cap), eff_stride_(stride) {
  CHS_CHECK_MSG(stride >= 1, "series stride must be >= 1");
  CHS_CHECK_MSG(cap >= 2 && (cap & (cap - 1)) == 0,
                "series capacity must be a power of two >= 2");
  samples_.reserve(static_cast<std::size_t>(cap));
}

void SeriesRecorder::on_round(std::uint64_t t, const SeriesSample& reading) {
  fold(bucket_, reading, prev_);
  prev_ = reading;
  ++bucket_rounds_;
  if (bucket_rounds_ >= eff_stride_) close_bucket(t);
}

void SeriesRecorder::flush(std::uint64_t t) {
  if (bucket_rounds_ > 0) close_bucket(t);
}

void SeriesRecorder::close_bucket(std::uint64_t t) {
  bucket_.round = t;
  samples_.push_back(bucket_);
  bucket_ = SeriesSample{};
  bucket_rounds_ = 0;
  if (samples_.size() < cap_) return;
  // Ring full: merge adjacent pairs (counters sum, gauges max) and double
  // the effective stride. cap_ is a power of two, so the pairing is exact.
  static const SeriesSample kEmpty;
  std::vector<SeriesSample> merged;
  merged.reserve(samples_.size() / 2);
  for (std::size_t i = 0; i + 1 < samples_.size(); i += 2) {
    SeriesSample m = samples_[i];
    fold(m, samples_[i + 1], kEmpty);
    m.round = samples_[i + 1].round;
    merged.push_back(std::move(m));
  }
  samples_ = std::move(merged);
  eff_stride_ *= 2;
}

}  // namespace chs::obs
