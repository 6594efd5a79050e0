// Statistics helpers used throughout the benchmarks and tests: running
// moments, percentile extraction, empirical CDFs (both for reporting results
// and for sampling flow sizes from workload distributions).
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace lf {

/// Streaming mean / variance / min / max (Welford's algorithm).
class running_stats {
 public:
  void add(double x) noexcept;
  void merge(const running_stats& other) noexcept;
  void reset() noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;  ///< population variance
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Percentile of a sample set using linear interpolation; p in [0, 100].
/// The input is copied and sorted. Returns 0 for an empty sample.
double percentile(std::span<const double> samples, double p);

/// Convenience: several percentiles at once over one sort.
std::vector<double> percentiles(std::span<const double> samples,
                                std::span<const double> ps);

/// Arithmetic mean (0 for empty input).
double mean_of(std::span<const double> samples);

/// Empirical CDF. Built either from raw samples or from explicit
/// (value, cumulative-probability) knots; supports both evaluation (what
/// fraction is <= x) and inverse sampling (value at quantile u).
class empirical_cdf {
 public:
  empirical_cdf() = default;

  /// Build from raw samples (sorted internally).
  static empirical_cdf from_samples(std::span<const double> samples);

  /// Build from knots: pairs of (value, cum_prob), cum_prob non-decreasing,
  /// last cum_prob must be 1.0. Linear interpolation between knots.
  static empirical_cdf from_knots(std::vector<std::pair<double, double>> knots);

  /// P(X <= x).
  double cdf(double x) const noexcept;

  /// Inverse CDF: value at quantile u in [0, 1].
  double quantile(double u) const noexcept;

  double min_value() const noexcept;
  double max_value() const noexcept;
  double mean_value() const noexcept;  ///< mean of the piecewise-linear CDF

  bool empty() const noexcept { return knots_.empty(); }

 private:
  // Sorted (value, cum_prob) pairs.
  std::vector<std::pair<double, double>> knots_;
};

}  // namespace lf
