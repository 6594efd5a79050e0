// Unit tests for src/util: RNG, statistics, fixed point, time series, table.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include "util/fixed_point.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time_series.hpp"

namespace {

using namespace lf;

// ------------------------------------------------------------------- rng --

TEST(Rng, DeterministicForSameSeed) {
  rng a{42};
  rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  rng a{1};
  rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  rng g{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = g.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  rng g{7};
  for (int i = 0; i < 1000; ++i) {
    const double u = g.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  rng g{9};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(g.uniform_int(3, 8));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 8);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  rng g{11};
  running_stats s;
  for (int i = 0; i < 50000; ++i) s.add(g.normal(2.0, 3.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
  EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  rng g{13};
  running_stats s;
  for (int i = 0; i < 50000; ++i) s.add(g.exponential(4.0));
  EXPECT_NEAR(s.mean(), 0.25, 0.01);
}

TEST(Rng, BernoulliFrequency) {
  rng g{17};
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += g.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, WeightedIndexProportions) {
  rng g{19};
  const double w[] = {1.0, 3.0};
  int ones = 0;
  for (int i = 0; i < 20000; ++i) ones += (g.weighted_index(w) == 1);
  EXPECT_NEAR(ones / 20000.0, 0.75, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  rng g{23};
  rng child = g.split();
  // Child differs from parent continuation.
  EXPECT_NE(child.next_u64(), g.next_u64());
}

TEST(Rng, ParetoAboveScale) {
  rng g{29};
  for (int i = 0; i < 1000; ++i) EXPECT_GE(g.pareto(1.5, 2.0), 2.0);
}

// ----------------------------------------------------------------- stats --

TEST(RunningStats, MatchesDirectComputation) {
  running_stats s;
  const double xs[] = {1.0, 2.0, 3.0, 4.0, 10.0};
  double sum = 0.0;
  for (const double x : xs) {
    s.add(x);
    sum += x;
  }
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.sum(), sum);
  EXPECT_NEAR(s.mean(), 4.0, 1e-12);
  double var = 0.0;
  for (const double x : xs) var += (x - 4.0) * (x - 4.0);
  var /= 5.0;
  EXPECT_NEAR(s.variance(), var, 1e-9);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
}

TEST(RunningStats, MergeEqualsConcatenation) {
  rng g{31};
  running_stats a;
  running_stats b;
  running_stats all;
  for (int i = 0; i < 100; ++i) {
    const double x = g.normal();
    a.add(x);
    all.add(x);
  }
  for (int i = 0; i < 57; ++i) {
    const double x = g.uniform(0, 5);
    b.add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, EmptyIsZero) {
  running_stats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Percentile, MedianAndExtremes) {
  const double xs[] = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
}

TEST(Percentile, InterpolatesBetweenSamples) {
  const double xs[] = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.5);
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Percentile, BatchMatchesSingle) {
  const double xs[] = {9.0, 1.0, 7.0, 3.0, 5.0};
  const double ps[] = {10.0, 50.0, 99.0};
  const auto batch = percentiles(xs, ps);
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(batch[i], percentile(xs, ps[i]));
  }
}

TEST(EmpiricalCdf, FromSamplesEvaluates) {
  const double xs[] = {1.0, 2.0, 3.0, 4.0};
  const auto c = empirical_cdf::from_samples(xs);
  EXPECT_DOUBLE_EQ(c.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(c.cdf(4.0), 1.0);
  EXPECT_NEAR(c.cdf(2.5), 0.625, 1e-9);
}

TEST(EmpiricalCdf, QuantileInvertsRoughly) {
  const double xs[] = {10.0, 20.0, 30.0, 40.0, 50.0};
  const auto c = empirical_cdf::from_samples(xs);
  EXPECT_DOUBLE_EQ(c.quantile(1.0), 50.0);
  EXPECT_LE(c.quantile(0.2), 20.0);
  EXPECT_GE(c.quantile(0.9), 40.0);
}

TEST(EmpiricalCdf, FromKnotsInterpolates) {
  auto c = empirical_cdf::from_knots({{0.0, 0.0}, {100.0, 1.0}});
  EXPECT_DOUBLE_EQ(c.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(c.cdf(25.0), 0.25);
  EXPECT_NEAR(c.mean_value(), 50.0, 1e-9);
}

TEST(EmpiricalCdf, RejectsBadKnots) {
  EXPECT_THROW(empirical_cdf::from_knots({{0.0, 0.5}}), std::invalid_argument);
  EXPECT_THROW(empirical_cdf::from_knots({{5.0, 0.0}, {1.0, 1.0}}),
               std::invalid_argument);
}

// ----------------------------------------------------------- fixed point --

TEST(FixedPoint, DivRoundHalfAwayFromZero) {
  using fp::div_round;
  EXPECT_EQ(div_round(7, 2), 4);    // 3.5 -> 4
  EXPECT_EQ(div_round(-7, 2), -4);  // -3.5 -> -4
  EXPECT_EQ(div_round(6, 4), 2);    // 1.5 -> 2
  EXPECT_EQ(div_round(5, 4), 1);    // 1.25 -> 1
  EXPECT_EQ(div_round(-5, 4), -1);
  EXPECT_EQ(div_round(8, 4), 2);
  EXPECT_EQ(div_round(0, 5), 0);
}

TEST(FixedPoint, DivFloor) {
  using fp::div_floor;
  EXPECT_EQ(div_floor(7, 2), 3);
  EXPECT_EQ(div_floor(-7, 2), -4);
  EXPECT_EQ(div_floor(-8, 2), -4);
}

TEST(FixedPoint, SaturatingArithmetic) {
  using namespace fp;
  EXPECT_EQ(sat_add(s64_max, 1), s64_max);
  EXPECT_EQ(sat_add(s64_min, -1), s64_min);
  EXPECT_EQ(sat_sub(s64_min, 1), s64_min);
  EXPECT_EQ(sat_mul(s64_max, 2), s64_max);
  EXPECT_EQ(sat_mul(s64_max, -2), s64_min);
  EXPECT_EQ(sat_mul(s64_min, -1), s64_max);
  EXPECT_EQ(sat_add(2, 3), 5);
  EXPECT_EQ(sat_mul(-4, 5), -20);
}

TEST(FixedPoint, MulDivUses128BitIntermediate) {
  using namespace fp;
  // a*b overflows 64 bits but the quotient fits.
  const s64 a = s64{1} << 40;
  const s64 b = s64{1} << 30;
  EXPECT_EQ(mul_div(a, b, s64{1} << 30), a);
  EXPECT_EQ(mul_div(10, 10, 3), 33);    // 33.33 -> 33
  EXPECT_EQ(mul_div(10, 10, 8), 13);    // 12.5 -> 13 (away from zero)
  EXPECT_EQ(mul_div(-10, 10, 8), -13);
}

struct div_round_case {
  fp::s64 num, den, expected;
};

class DivRoundSweep : public ::testing::TestWithParam<div_round_case> {};

TEST_P(DivRoundSweep, MatchesNearestInteger) {
  const auto& c = GetParam();
  EXPECT_EQ(fp::div_round(c.num, c.den), c.expected)
      << c.num << " / " << c.den;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DivRoundSweep,
    ::testing::Values(div_round_case{10, 3, 3}, div_round_case{11, 3, 4},
                      div_round_case{-10, 3, -3}, div_round_case{-11, 3, -4},
                      div_round_case{1, 2, 1}, div_round_case{-1, 2, -1},
                      div_round_case{99, 100, 1}, div_round_case{49, 100, 0},
                      div_round_case{50, 100, 1}, div_round_case{-50, 100, -1},
                      div_round_case{1000, 1, 1000},
                      div_round_case{7, -2, -4}, div_round_case{-7, -2, 4}));

TEST(FixedPoint, DivRoundHugeDivisorDoesNotOverflow) {
  using namespace fp;
  // Regression: with |den| > s64_max / 2, the old `abs_rem * 2` round test
  // overflowed (UB) and could flip the rounding direction.  E.g. num just
  // above den/2 must round to 1, just below to 0 — for the largest divisors.
  const s64 big = s64_max;  // odd: big/2 rounds down
  EXPECT_EQ(div_round(big / 2, big), 0);      // 0.4999... -> 0
  EXPECT_EQ(div_round(big / 2 + 1, big), 1);  // 0.5000... -> 1 (ties away)
  EXPECT_EQ(div_round(-(big / 2), big), 0);
  EXPECT_EQ(div_round(-(big / 2) - 1, big), -1);
  EXPECT_EQ(div_round(big - 1, big), 1);
  EXPECT_EQ(div_round(1 - big, big), -1);
  // Even divisor just above the half-range threshold: exact tie.
  const s64 even = (s64{1} << 62);  // 2^62 > s64_max / 2
  EXPECT_EQ(div_round(even / 2, even), 1);      // exactly 0.5 -> away
  EXPECT_EQ(div_round(even / 2 - 1, even), 0);
  EXPECT_EQ(div_round(-(even / 2), even), -1);
  EXPECT_EQ(div_round(-(even / 2) + 1, even), 0);
  // Negative huge divisors, including s64_min itself (|den| = 2^63).
  EXPECT_EQ(div_round(even, s64_min), -1);      // exactly -0.5 -> away
  EXPECT_EQ(div_round(even - 1, s64_min), 0);
  EXPECT_EQ(div_round(s64_max, s64_min), -1);
  EXPECT_EQ(div_round(s64_min, s64_max), -1);
}

TEST(FixedPoint, DivRoundSaturatesMinOverMinusOne) {
  EXPECT_EQ(fp::div_round(fp::s64_min, -1), fp::s64_max);
  EXPECT_EQ(fp::div_round(fp::s64_min + 1, -1), fp::s64_max);
  EXPECT_EQ(fp::div_round(fp::s64_max, 1), fp::s64_max);
  EXPECT_EQ(fp::div_round(fp::s64_min, 1), fp::s64_min);
}

TEST(FixedPoint, DivRoundAgreesWithMulDivEverywhere) {
  // mul_div(num, 1, den) computes the same quotient in 128-bit arithmetic
  // where nothing can overflow; div_round must agree on random pairs drawn
  // across the whole s64 range, including divisor magnitudes > s64_max / 2.
  rng g{0xd1f};
  for (int i = 0; i < 20000; ++i) {
    const fp::s64 num = static_cast<fp::s64>(g.next_u64());
    fp::s64 den = static_cast<fp::s64>(g.next_u64());
    if (den == 0) den = 1;
    EXPECT_EQ(fp::div_round(num, den), fp::mul_div(num, 1, den))
        << num << " / " << den;
  }
}

TEST(FixedPoint, SatQuantizeClampsInsteadOfUb) {
  using namespace fp;
  EXPECT_EQ(sat_quantize(0.0), 0);
  EXPECT_EQ(sat_quantize(1.49), 1);
  EXPECT_EQ(sat_quantize(1.5), 2);
  EXPECT_EQ(sat_quantize(-1.5), -2);
  EXPECT_EQ(sat_quantize(1e30), s64_max);
  EXPECT_EQ(sat_quantize(-1e30), s64_min);
  EXPECT_EQ(sat_quantize(9223372036854775808.0), s64_max);    // 2^63
  EXPECT_EQ(sat_quantize(-9223372036854775808.0), s64_min);   // -2^63
  EXPECT_EQ(sat_quantize(std::numeric_limits<double>::infinity()), s64_max);
  EXPECT_EQ(sat_quantize(-std::numeric_limits<double>::infinity()), s64_min);
  EXPECT_EQ(sat_quantize(std::numeric_limits<double>::quiet_NaN()), 0);
}

TEST(FixedPoint, SatQuantizeRoundsAsLlroundEverywhere) {
  // sat_quantize rounds inline instead of calling llround; inside s64's
  // range it must agree with std::llround on every double, and outside it
  // saturate.
  using namespace fp;
  const auto expected = [](double v) -> s64 {
    if (std::isnan(v)) return 0;
    if (v >= 0x1p63) return s64_max;
    if (v < -0x1p63) return s64_min;
    return std::llround(v);
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double edges[] = {
      0.0, 0.5, 1.5, 2.5, 1e6 + 0.5, 0x1p51 + 0.5, 0x1p52 - 0.5,
      0x1p52 - 1.5, 0.49999999999999994, std::nextafter(0.5, 1.0),
      std::nextafter(1.5, 0.0), 0x1p52 + 0.5, 0x1p52 - 0.5, 0x1p52,
      std::nextafter(0x1p52, 0.0), std::nextafter(0x1p52, inf), 0x1p53,
      std::nextafter(0x1p53, 0.0), 0x1p53 + 2.0, 0x1p63,
      std::nextafter(0x1p63, 0.0), std::nextafter(0x1p63, inf),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      inf};
  for (const double e : edges) {
    for (const double v : {e, -e}) {
      EXPECT_EQ(sat_quantize(v), expected(v)) << std::hexfloat << v;
    }
  }
  EXPECT_EQ(sat_quantize(0.49999999999999994), 0);
  EXPECT_EQ(sat_quantize(-0.49999999999999994), 0);
  EXPECT_EQ(sat_quantize(-0x1p63), s64_min);

  // 10^7 finite doubles of four kinds: any bit pattern; any sign and
  // exponent below 2^63; an integer below 2^53 plus a half, one ulp either
  // side of it, or a random fraction; and uniform values in +-10^6.
  rng g{0x11d};
  std::size_t mismatches = 0;
  for (int n = 0; n < 10'000'000; ++n) {
    const std::uint64_t r = g.next_u64();
    double v = 0.0;
    switch (n % 4) {
      case 0:
        v = std::bit_cast<double>(r);
        if (!std::isfinite(v)) continue;
        break;
      case 1: {
        // Biased exponent 0..1085: |v| below 2^63, subnormals included.
        const std::uint64_t exp = (r >> 52) % 1086;
        v = std::bit_cast<double>((r & 0x800fffffffffffffULL) | (exp << 52));
        break;
      }
      case 2: {
        // An integer k, |k| <= 2^53, at a random magnitude.
        const auto k = static_cast<double>(static_cast<std::int64_t>(r) >>
                                           (10 + g.next_u64() % 54));
        const double half = k + (k < 0 ? -0.5 : 0.5);
        switch (g.next_u64() % 4) {
          case 0:
            v = half;
            break;
          case 1:
            v = std::nextafter(half, 0.0);
            break;
          case 2:
            v = std::nextafter(half, k < 0 ? -inf : inf);
            break;
          default:
            v = k + g.uniform(-1.0, 1.0);
            break;
        }
        break;
      }
      default:
        v = g.uniform(-1e6, 1e6);
        break;
    }
    if (sat_quantize(v) != expected(v) && ++mismatches <= 5) {
      ADD_FAILURE() << std::hexfloat << v << " -> " << sat_quantize(v)
                    << ", llround " << expected(v);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// ------------------------------------------------------------ time series --

TEST(TimeSeries, AverageOverWindow) {
  time_series ts{"goodput"};
  ts.record(0.0, 10.0);
  ts.record(1.0, 20.0);
  ts.record(2.0, 30.0);
  EXPECT_DOUBLE_EQ(ts.average(0.0, 2.0), 15.0);
  EXPECT_DOUBLE_EQ(ts.average(0.0, 3.0), 20.0);
  EXPECT_DOUBLE_EQ(ts.average(5.0, 6.0), 0.0);
}

TEST(TimeSeries, RejectsTimeGoingBackwards) {
  time_series ts;
  ts.record(1.0, 0.0);
  EXPECT_THROW(ts.record(0.5, 0.0), std::invalid_argument);
}

TEST(TimeSeries, ResampleSampleAndHold) {
  time_series ts;
  ts.record(0.1, 4.0);
  ts.record(2.5, 8.0);
  const auto rs = ts.resample(0.0, 4.0, 1.0);
  ASSERT_EQ(rs.size(), 4u);
  EXPECT_DOUBLE_EQ(rs[0].second, 4.0);
  EXPECT_DOUBLE_EQ(rs[1].second, 4.0);  // empty bucket holds previous
  EXPECT_DOUBLE_EQ(rs[2].second, 8.0);
  EXPECT_DOUBLE_EQ(rs[3].second, 8.0);
}

TEST(TimeSeries, ResampleDegenerateWindowsReturnEmpty) {
  time_series ts;
  ts.record(0.5, 4.0);
  ts.record(1.5, 8.0);
  EXPECT_TRUE(ts.resample(0.0, 2.0, 0.0).empty());    // zero-width bucket
  EXPECT_TRUE(ts.resample(0.0, 2.0, -1.0).empty());   // negative bucket
  EXPECT_TRUE(ts.resample(2.0, 2.0, 0.5).empty());    // empty window
  EXPECT_TRUE(ts.resample(3.0, 1.0, 0.5).empty());    // inverted window
}

TEST(TimeSeries, ResampleSinglePointHoldsAcrossAllBuckets) {
  time_series ts;
  ts.record(0.25, 7.0);
  const auto rs = ts.resample(0.0, 3.0, 1.0);
  ASSERT_EQ(rs.size(), 3u);
  for (const auto& [t, v] : rs) EXPECT_DOUBLE_EQ(v, 7.0);
  // Buckets entirely before the first point hold 0 (nothing to sample).
  const auto early = ts.resample(-2.0, 1.0, 1.0);
  ASSERT_EQ(early.size(), 3u);
  EXPECT_DOUBLE_EQ(early[0].second, 0.0);
  EXPECT_DOUBLE_EQ(early[1].second, 0.0);
  EXPECT_DOUBLE_EQ(early[2].second, 7.0);
}

TEST(TimeSeries, AverageDegenerateWindows) {
  time_series ts;
  ts.record(1.0, 10.0);
  EXPECT_DOUBLE_EQ(ts.average(1.0, 1.0), 0.0);  // empty [t0, t0)
  EXPECT_DOUBLE_EQ(ts.average(2.0, 1.0), 0.0);  // inverted
  EXPECT_DOUBLE_EQ(ts.average(1.0, 1.5), 10.0);  // closed-open includes t0
  EXPECT_DOUBLE_EQ(ts.average(0.5, 1.0), 0.0);   // ... and excludes t1
  const time_series empty;
  EXPECT_DOUBLE_EQ(empty.average(0.0, 1.0), 0.0);
}

TEST(TimeSeries, ValuesExtraction) {
  time_series ts;
  ts.record(0, 1);
  ts.record(1, 2);
  const auto v = ts.values();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
}

// ----------------------------------------------------------------- table --

TEST(TextTable, FormatsAlignedColumns) {
  text_table t{{"scheme", "goodput"}};
  t.add_row({"BBR", "16.1"});
  t.add_row({"LF-Aurora", "15.8"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("scheme"), std::string::npos);
  EXPECT_NE(s.find("LF-Aurora"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, RejectsMismatchedRow) {
  text_table t{{"a", "b"}};
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(text_table::num(3.14159, 2), "3.14");
  EXPECT_EQ(text_table::num(2.0, 0), "2");
}

}  // namespace
