// Tests for the utility layer: status/result, units, RNG, histogram, table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/util/histogram.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/table.h"
#include "src/util/units.h"

namespace calliope {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(OkStatus().ok());
  const Status error = NotFoundError("thing");
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.code(), StatusCode::kNotFound);
  EXPECT_EQ(error.ToString(), "NOT_FOUND: thing");
  EXPECT_EQ(OkStatus().ToString(), "OK");
}

Result<int> ParsePositive(int v) {
  if (v <= 0) {
    return InvalidArgumentError("not positive");
  }
  return v;
}

TEST(ResultTest, ValueAndError) {
  auto good = ParsePositive(5);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 5);
  EXPECT_EQ(good.value_or(-1), 5);
  auto bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.value_or(-1), -1);
}

Status UseMacros(int v) {
  CALLIOPE_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  CALLIOPE_RETURN_IF_ERROR(parsed > 100 ? InvalidArgumentError("too big") : OkStatus());
  return OkStatus();
}

TEST(ResultTest, Macros) {
  EXPECT_TRUE(UseMacros(5).ok());
  EXPECT_EQ(UseMacros(-1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(UseMacros(500).message(), "too big");
}

TEST(UnitsTest, TimeArithmetic) {
  EXPECT_EQ(SimTime::Seconds(2) + SimTime::Millis(500), SimTime::Millis(2500));
  EXPECT_EQ(SimTime::Millis(10) * 3, SimTime::Millis(30));
  EXPECT_EQ(SimTime::Seconds(1) / SimTime::Millis(10), 100);
  EXPECT_LT(SimTime::Millis(1), SimTime::Millis(2));
  EXPECT_DOUBLE_EQ(SimTime::Millis(1500).seconds(), 1.5);
}

TEST(UnitsTest, BytesConversions) {
  EXPECT_EQ(Bytes::KiB(256).count(), 262144);
  EXPECT_EQ(Bytes::GiB(2) / Bytes::KiB(256), 8192);
  EXPECT_DOUBLE_EQ(Bytes(1000000).megabytes(), 1.0);
}

TEST(UnitsTest, DataRateTransferMath) {
  const DataRate mpeg = DataRate::MegabitsPerSec(1.5);
  // 4 KB at 1.5 Mbit/s is ~21.8 ms.
  EXPECT_NEAR(mpeg.TransferTime(Bytes::KiB(4)).millis_f(), 21.85, 0.05);
  // And the inverse: bytes in one second equals the byte rate.
  EXPECT_EQ(mpeg.BytesIn(SimTime::Seconds(1)).count(), mpeg.bytes_per_sec());
  // Large transfers must not overflow: a 2-hour movie.
  const SimTime t = mpeg.TransferTime(Bytes(1350000000));
  EXPECT_NEAR(t.seconds(), 7200.0, 1.0);
}

TEST(UnitsTest, ZeroRateNeverDivides) {
  EXPECT_EQ(DataRate().TransferTime(Bytes(100)), SimTime::Max());
}

TEST(RngTest, DeterministicAndDistinctStreams) {
  Rng a(1), b(1), c(2);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  Rng a2(1);
  EXPECT_NE(a2.NextU64(), c.NextU64());
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(7), 7u);
  }
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng rng(4);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    sum += rng.NextExponential(3.0);
  }
  EXPECT_NEAR(sum / 20000, 3.0, 0.1);
}

TEST(ZipfTest, HeadIsHot) {
  Rng rng(6);
  ZipfDistribution zipf(10, 1.2);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[5]);
  EXPECT_GT(counts[0], 20000 / 4);  // rank 0 dominates
}

TEST(HistogramTest, FractionAndQuantiles) {
  LatenessHistogram histogram;
  for (int i = 0; i < 90; ++i) {
    histogram.Record(SimTime::Millis(10));
  }
  for (int i = 0; i < 10; ++i) {
    histogram.Record(SimTime::Millis(200));
  }
  EXPECT_EQ(histogram.total_count(), 100);
  EXPECT_DOUBLE_EQ(histogram.FractionWithin(SimTime::Millis(50)), 0.9);
  EXPECT_DOUBLE_EQ(histogram.FractionWithin(SimTime::Millis(300)), 1.0);
  EXPECT_EQ(histogram.Quantile(0.5), SimTime::Millis(11));  // upper bin edge
  EXPECT_EQ(histogram.MaxRecorded(), SimTime::Millis(200));
}

TEST(HistogramTest, EarlyPacketsCountOnTime) {
  LatenessHistogram histogram;
  histogram.Record(SimTime::Millis(-5));
  histogram.Record(SimTime::Millis(5));
  EXPECT_EQ(histogram.underflow_count(), 1);
  EXPECT_DOUBLE_EQ(histogram.FractionWithin(SimTime::Millis(10)), 1.0);
}

TEST(HistogramTest, OverflowBin) {
  LatenessHistogram histogram(SimTime::Millis(1), 100);
  histogram.Record(SimTime::Seconds(10));
  EXPECT_EQ(histogram.overflow_count(), 1);
  EXPECT_EQ(histogram.Quantile(1.0), SimTime::Max());
}

// Regression: Quantile used a floor()ed rank target, so for fractional
// q * total it could return a lateness L with FractionWithin(L) < q —
// asymmetric with FractionWithin's own accounting.
TEST(HistogramTest, QuantileAgreesWithFractionWithin) {
  LatenessHistogram histogram;
  histogram.Record(SimTime::Millis(1));
  histogram.Record(SimTime::Millis(10));
  histogram.Record(SimTime::Millis(100));
  // ceil(0.5 * 3) = 2 samples must be covered: the 10 ms bin, not the 1 ms one.
  const SimTime median = histogram.Quantile(0.5);
  EXPECT_EQ(median, SimTime::Millis(11));
  EXPECT_GE(histogram.FractionWithin(median), 0.5);
}

// The underflow convention: early samples clamp to zero lateness in every
// aggregate (FractionWithin, Quantile, MeanLateness); MaxRecorded stays raw.
TEST(HistogramTest, UnderflowConventionUnifiedAcrossAggregates) {
  LatenessHistogram histogram;
  for (int i = 0; i < 3; ++i) {
    histogram.Record(SimTime::Millis(-50));
  }
  histogram.Record(SimTime::Millis(4));
  EXPECT_EQ(histogram.underflow_count(), 3);
  // 3 of 4 samples are early: the median sits in the underflow bin and is
  // reported as exactly on time, not negative and not the 4 ms bin.
  EXPECT_EQ(histogram.Quantile(0.5), SimTime());
  EXPECT_GE(histogram.FractionWithin(SimTime()), 0.75);
  // Mean clamps the early samples to zero: 4 ms / 4 samples = 1 ms.
  EXPECT_EQ(histogram.MeanLateness(), SimTime::Millis(1));
  EXPECT_EQ(histogram.MaxRecorded(), SimTime::Millis(4));
  EXPECT_EQ(histogram.CountAbove(SimTime()), 1);
  EXPECT_EQ(histogram.CountAbove(SimTime::Millis(10)), 0);
}

TEST(HistogramTest, GeneralHistogramExponentialBins) {
  Histogram histogram;
  EXPECT_EQ(histogram.Quantile(0.5), 0);
  histogram.Record(-7);  // clamps to the zero bin
  histogram.Record(0);
  histogram.Record(3);
  histogram.Record(100);
  histogram.Record(1000);
  EXPECT_EQ(histogram.count(), 5);
  EXPECT_EQ(histogram.sum(), 1103);  // negative sample contributes zero
  EXPECT_EQ(histogram.min(), -7);
  EXPECT_EQ(histogram.max(), 1000);
  EXPECT_EQ(histogram.Quantile(0.5), 3);      // bin [2,4) upper edge
  EXPECT_EQ(histogram.Quantile(1.0), 1000);   // clamped to witnessed max
  Histogram other;
  other.Record(5000);
  histogram.Merge(other);
  EXPECT_EQ(histogram.count(), 6);
  EXPECT_EQ(histogram.max(), 5000);
}

TEST(HistogramTest, MergeAddsCounts) {
  LatenessHistogram a, b;
  a.Record(SimTime::Millis(1));
  b.Record(SimTime::Millis(2));
  a.Merge(b);
  EXPECT_EQ(a.total_count(), 2);
  EXPECT_EQ(a.MaxRecorded(), SimTime::Millis(2));
}

// Dense reference for LatenessHistogram: every bin of the logical range is
// allocated up front and each query is written out directly over it. The
// histogram stores only the bins it has touched; every answer must match.
struct DenseLateness {
  DenseLateness(SimTime width_in, size_t bin_count) : width(width_in), bins(bin_count, 0) {}

  void Record(SimTime lateness) {
    ++total;
    max_recorded = std::max(max_recorded, lateness);
    if (lateness.nanos() > 0) {
      sum_ns += lateness.nanos();
    }
    if (lateness.nanos() < 0) {
      ++underflow;
      return;
    }
    const auto bin = static_cast<size_t>(lateness.nanos() / width.nanos());
    if (bin >= bins.size()) {
      ++overflow;
      return;
    }
    ++bins[bin];
  }

  void Merge(const DenseLateness& other) {
    for (size_t i = 0; i < bins.size(); ++i) {
      bins[i] += other.bins[i];
    }
    underflow += other.underflow;
    overflow += other.overflow;
    total += other.total;
    sum_ns += other.sum_ns;
    max_recorded = std::max(max_recorded, other.max_recorded);
  }

  double FractionWithin(SimTime threshold) const {
    if (total == 0) {
      return 1.0;
    }
    int64_t covered = underflow;
    for (size_t i = 0; i < bins.size(); ++i) {
      if (static_cast<int64_t>(i) <= threshold.nanos() / width.nanos()) {
        covered += bins[i];
      }
    }
    return static_cast<double>(covered) / static_cast<double>(total);
  }

  int64_t CountAbove(SimTime threshold) const {
    int64_t above = overflow;
    for (size_t i = 0; i < bins.size(); ++i) {
      if (static_cast<int64_t>(i) > threshold.nanos() / width.nanos()) {
        above += bins[i];
      }
    }
    return above;
  }

  SimTime Quantile(double q) const {
    if (total == 0) {
      return SimTime();
    }
    const auto target = std::min<int64_t>(
        total, static_cast<int64_t>(std::ceil(q * static_cast<double>(total))));
    int64_t covered = underflow;
    if (covered >= target) {
      return SimTime();
    }
    for (size_t i = 0; i < bins.size(); ++i) {
      covered += bins[i];
      if (covered >= target) {
        return width * static_cast<int64_t>(i + 1);
      }
    }
    return SimTime::Max();
  }

  SimTime MeanLateness() const { return total == 0 ? SimTime() : SimTime(sum_ns / total); }

  std::vector<LatenessHistogram::CdfPoint> CdfSeries(size_t points) const {
    std::vector<LatenessHistogram::CdfPoint> out;
    if (total == 0 || points == 0) {
      return out;
    }
    size_t last = 0;
    for (size_t i = 0; i < bins.size(); ++i) {
      if (bins[i] > 0) {
        last = i;
      }
    }
    const size_t span = last + 1;
    const size_t step = std::max<size_t>(1, span / points);
    int64_t covered = underflow;
    for (size_t i = 0; i < span; ++i) {
      covered += bins[i];
      if ((i + 1) % step == 0 || i == span - 1) {
        out.push_back({width * static_cast<int64_t>(i + 1),
                       100.0 * static_cast<double>(covered) / static_cast<double>(total)});
      }
    }
    if (overflow > 0) {
      out.push_back({SimTime::Max(), 100.0});
    }
    return out;
  }

  SimTime width;
  std::vector<int64_t> bins;
  int64_t underflow = 0;
  int64_t overflow = 0;
  int64_t total = 0;
  int64_t sum_ns = 0;
  SimTime max_recorded = SimTime::Nanos(INT64_MIN);
};

// Compares every query, at thresholds around the 64-bin growth steps and the
// ends of the logical range, bit for bit.
void ExpectSameAnswers(const LatenessHistogram& sparse, const DenseLateness& dense) {
  const auto n = static_cast<int64_t>(dense.bins.size());
  ASSERT_EQ(sparse.total_count(), dense.total);
  EXPECT_EQ(sparse.underflow_count(), dense.underflow);
  EXPECT_EQ(sparse.overflow_count(), dense.overflow);
  EXPECT_EQ(sparse.MaxRecorded(), dense.max_recorded);
  EXPECT_EQ(sparse.MeanLateness(), dense.MeanLateness());
  for (const int64_t bin : {int64_t{-1}, int64_t{0}, int64_t{1}, int64_t{62}, int64_t{63},
                            int64_t{64}, int64_t{65}, int64_t{127}, int64_t{128}, n / 2, n - 2,
                            n - 1, n, n + 1, 4 * n}) {
    for (const SimTime threshold : {dense.width * bin, dense.width * bin + SimTime::Nanos(1),
                                    dense.width * bin - SimTime::Nanos(1)}) {
      EXPECT_EQ(sparse.FractionWithin(threshold), dense.FractionWithin(threshold))
          << "bin " << bin;
      EXPECT_EQ(sparse.CountAbove(threshold), dense.CountAbove(threshold)) << "bin " << bin;
    }
  }
  for (const double q : {0.0, 0.001, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(sparse.Quantile(q), dense.Quantile(q)) << "q " << q;
  }
  for (const size_t points : {size_t{0}, size_t{1}, size_t{7}, size_t{16}, size_t{60},
                              size_t{5000}}) {
    const auto got = sparse.CdfSeries(points);
    const auto want = dense.CdfSeries(points);
    ASSERT_EQ(got.size(), want.size()) << "points " << points;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].lateness, want[i].lateness) << "points " << points << " row " << i;
      EXPECT_EQ(got[i].cumulative_percent, want[i].cumulative_percent)
          << "points " << points << " row " << i;
    }
  }
}

// Draws a lateness sample that favours the edges: underflow, bin 0, the
// 63/64/65 growth-step boundary, the last bin, the first overflow bin, deep
// overflow, or anywhere in between.
SimTime EdgeBiasedLateness(Rng& rng, SimTime width, size_t bin_count) {
  const auto n = static_cast<int64_t>(bin_count);
  auto in_bin = [&](int64_t bin) {
    return width * bin + SimTime::Nanos(rng.NextInRange(0, width.nanos() - 1));
  };
  switch (rng.NextBelow(9)) {
    case 0:
      return SimTime::Nanos(-rng.NextInRange(1, 5 * width.nanos()));
    case 1:
      return in_bin(0);
    case 2:
      return in_bin(63);
    case 3:
      return in_bin(64);
    case 4:
      return in_bin(65);
    case 5:
      return in_bin(n - 1);
    case 6:
      return in_bin(n);
    case 7:
      return in_bin(n + rng.NextInRange(1, 10 * n));
    default:
      return in_bin(rng.NextInRange(0, n - 1));
  }
}

TEST(HistogramTest, SparseStorageAnswersLikeDenseBins) {
  const SimTime width = SimTime::Millis(1);
  // 1000 is the default range; 100 and 130 are not multiples of the growth
  // step, so the last step is capped at the logical range.
  for (const size_t bin_count : {size_t{1000}, size_t{130}, size_t{100}, size_t{64}}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      Rng rng(seed * 7919 + bin_count);
      LatenessHistogram sparse(width, bin_count);
      DenseLateness dense(width, bin_count);
      ExpectSameAnswers(sparse, dense);  // empty
      for (int batch = 0; batch < 8; ++batch) {
        const int samples = 1 + static_cast<int>(rng.NextBelow(40));
        for (int i = 0; i < samples; ++i) {
          const SimTime lateness = EdgeBiasedLateness(rng, width, bin_count);
          sparse.Record(lateness);
          dense.Record(lateness);
        }
        SCOPED_TRACE("bin_count " + std::to_string(bin_count) + " seed " +
                     std::to_string(seed) + " batch " + std::to_string(batch));
        ExpectSameAnswers(sparse, dense);
      }
    }
  }
}

TEST(HistogramTest, SparseOnlyUnderflowAndOverflowAnswersLikeDenseBins) {
  // No bin is ever touched, so nothing is allocated at all.
  LatenessHistogram sparse(SimTime::Millis(1), 100);
  DenseLateness dense(SimTime::Millis(1), 100);
  for (const SimTime lateness : {SimTime::Millis(-3), SimTime::Millis(100), SimTime::Seconds(5),
                                 SimTime::Nanos(-1)}) {
    sparse.Record(lateness);
    dense.Record(lateness);
  }
  ExpectSameAnswers(sparse, dense);
}

TEST(HistogramTest, MergeAcrossGrownSizesAnswersLikeDenseBins) {
  const SimTime width = SimTime::Millis(1);
  const size_t bin_count = 1000;
  // `low` touches only the first growth step, `high` reaches near the end of
  // the range; merge them in both directions and into empty histograms.
  LatenessHistogram low(width, bin_count);
  LatenessHistogram high(width, bin_count);
  DenseLateness dense_low(width, bin_count);
  DenseLateness dense_high(width, bin_count);
  Rng rng(2026);
  for (int i = 0; i < 200; ++i) {
    const SimTime a = SimTime::Micros(rng.NextInRange(-2000, 63999));
    low.Record(a);
    dense_low.Record(a);
    const SimTime b = SimTime::Micros(rng.NextInRange(-2000, 1100000));
    high.Record(b);
    dense_high.Record(b);
  }

  LatenessHistogram low_then_high = low;
  low_then_high.Merge(high);
  DenseLateness dense_low_then_high = dense_low;
  dense_low_then_high.Merge(dense_high);
  ExpectSameAnswers(low_then_high, dense_low_then_high);

  LatenessHistogram high_then_low = high;
  high_then_low.Merge(low);
  DenseLateness dense_high_then_low = dense_high;
  dense_high_then_low.Merge(dense_low);
  ExpectSameAnswers(high_then_low, dense_high_then_low);

  LatenessHistogram into_empty(width, bin_count);
  into_empty.Merge(high);
  DenseLateness dense_into_empty(width, bin_count);
  dense_into_empty.Merge(dense_high);
  ExpectSameAnswers(into_empty, dense_into_empty);

  LatenessHistogram empty_into(width, bin_count);
  LatenessHistogram low_copy = low;
  low_copy.Merge(empty_into);
  ExpectSameAnswers(low_copy, dense_low);

  // Recording after a merge grows past the merged size correctly.
  const SimTime late = SimTime::Millis(999);
  into_empty.Record(late);
  dense_into_empty.Record(late);
  ExpectSameAnswers(into_empty, dense_into_empty);
}

TEST(TableTest, RendersAlignedColumns) {
  AsciiTable table({"a", "long header"});
  table.AddRow({"x", "1"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("| a | long header |"), std::string::npos);
  EXPECT_NE(out.find("| x | 1           |"), std::string::npos);
}

}  // namespace
}  // namespace calliope
