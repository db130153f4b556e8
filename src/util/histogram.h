// Histograms with cumulative-distribution queries.
//
// Two shapes live here:
//  - Histogram: general-purpose counts over exponential (power-of-two) bins,
//    for arbitrary non-negative integer samples (durations, sizes, depths).
//    Integer-only state so snapshots are bit-identical across equal runs.
//  - LatenessHistogram: the paper-specific linear-bin view. Graphs 1 and 2
//    plot "cumulative percent of packets" against "milliseconds late" in
//    one-millisecond bins; LatenessHistogram reproduces exactly that view
//    and also provides quantiles for tests.
#ifndef CALLIOPE_SRC_UTIL_HISTOGRAM_H_
#define CALLIOPE_SRC_UTIL_HISTOGRAM_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/units.h"

namespace calliope {

// General-purpose histogram over exponential bins. Bin 0 holds samples <= 0;
// bin k (k >= 1) holds samples in [2^(k-1), 2^k). 64 bins cover the full
// non-negative int64 range. Negative samples clamp to bin 0.
class Histogram {
 public:
  static constexpr size_t kBinCount = 64;

  Histogram();

  void Record(int64_t value);
  void Merge(const Histogram& other);

  int64_t count() const { return count_; }
  // Sum of samples, with negative samples clamped to zero (mirrors the
  // LatenessHistogram underflow convention below).
  int64_t sum() const { return sum_; }
  // Raw extremes over recorded samples; 0 when empty.
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return count_ == 0 ? 0 : max_; }
  int64_t Mean() const { return count_ == 0 ? 0 : sum_ / count_; }

  // Smallest bin upper edge E such that at least ceil(q * count) samples are
  // <= E, clamped to [min, max] so the answer is always a witnessed value
  // range. Returns 0 when empty.
  int64_t Quantile(double q) const;

 private:
  std::array<int64_t, kBinCount> bins_;
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

// Underflow convention (shared by every aggregate below): early packets —
// negative lateness — count as delivered exactly on time. They clamp to zero
// lateness in FractionWithin, Quantile, and MeanLateness alike; only
// MaxRecorded reports the raw signed value. Early delivery is a non-event in
// the paper's metrics (the client buffers it), so no aggregate may reward or
// penalise it differently from a perfectly punctual packet.
class LatenessHistogram {
 public:
  // Bins are `bin_width` wide, covering [0, bin_width * bin_count); samples
  // beyond the last bin land in an overflow bin, samples below zero (early
  // packets) in an underflow bin. `bin_count` is the logical range only:
  // storage grows in fixed steps up to the highest bin recorded, so a
  // histogram that never records past bin k holds about k counters, and bins
  // never allocated read as zero in every query.
  explicit LatenessHistogram(SimTime bin_width = SimTime::Millis(1), size_t bin_count = 1000);

  void Record(SimTime lateness);
  void Merge(const LatenessHistogram& other);

  int64_t total_count() const { return total_; }
  int64_t overflow_count() const { return overflow_; }
  int64_t underflow_count() const { return underflow_; }

  // Fraction (0..1) of samples with lateness <= threshold. Early samples
  // count as on time, matching the paper's metric.
  double FractionWithin(SimTime threshold) const;

  // Exact number of samples with lateness strictly greater than `threshold`
  // (threshold must be a bin boundary multiple for exactness; it is rounded
  // down to one). Integer counterpart of FractionWithin for reports.
  int64_t CountAbove(SimTime threshold) const;

  // Smallest lateness L such that FractionWithin(L) >= q. Returns the upper
  // edge of the containing bin; SimTime() (zero) when the quantile falls in
  // the underflow bin (early samples are on time, per the convention above);
  // SimTime::Max() if q falls in overflow.
  SimTime Quantile(double q) const;

  // Raw signed maximum (the one aggregate exempt from the clamp convention).
  SimTime MaxRecorded() const { return max_recorded_; }
  // Mean with early samples clamped to zero lateness.
  SimTime MeanLateness() const;

  // Rows of (upper bin edge, cumulative percent), thinned to `points` rows,
  // for plotting the paper's cumulative distribution curves.
  struct CdfPoint {
    SimTime lateness;
    double cumulative_percent;
  };
  std::vector<CdfPoint> CdfSeries(size_t points = 60) const;

  // Compact ASCII rendering of the CDF for bench output.
  std::string ToAsciiCdf(const std::string& label, size_t rows = 16) const;

 private:
  // Fixed, not geometric: lateness has one long tail, and doubling would
  // leave about a third of a grown histogram's counters unused.
  static constexpr size_t kGrowthStep = 64;

  // Grows storage to cover bins [0, used), rounded up to kGrowthStep and
  // capped at bin_count_, allocating exactly that many counters.
  void Grow(size_t used);
  int64_t BinAt(size_t i) const { return i < bins_.size() ? bins_[i] : 0; }

  SimTime bin_width_;
  size_t bin_count_;
  std::vector<int64_t> bins_;  // bins past bins_.size() are zero
  int64_t underflow_ = 0;
  int64_t overflow_ = 0;
  int64_t total_ = 0;
  int64_t lateness_sum_ns_ = 0;  // clamped-at-zero sum for mean
  SimTime max_recorded_ = SimTime::Nanos(INT64_MIN);
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_UTIL_HISTOGRAM_H_
