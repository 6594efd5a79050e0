#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lf {

void running_stats::add(double x) noexcept {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (n_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
}

void running_stats::merge(const running_stats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_ + other.n_);
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) / n;
  mean_ = (mean_ * static_cast<double>(n_) +
           other.mean_ * static_cast<double>(other.n_)) /
          n;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

void running_stats::reset() noexcept { *this = running_stats{}; }

double running_stats::variance() const noexcept {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double running_stats::stddev() const noexcept { return std::sqrt(variance()); }

double percentile(std::span<const double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

std::vector<double> percentiles(std::span<const double> samples,
                                std::span<const double> ps) {
  std::vector<double> out;
  out.reserve(ps.size());
  if (samples.empty()) {
    out.assign(ps.size(), 0.0);
    return out;
  }
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  for (const double p : ps) {
    const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                        static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    out.push_back(sorted[lo] + frac * (sorted[hi] - sorted[lo]));
  }
  return out;
}

double mean_of(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  double s = 0.0;
  for (const double x : samples) s += x;
  return s / static_cast<double>(samples.size());
}

empirical_cdf empirical_cdf::from_samples(std::span<const double> samples) {
  empirical_cdf c;
  if (samples.empty()) return c;
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  c.knots_.reserve(sorted.size());
  const auto n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    c.knots_.emplace_back(sorted[i], static_cast<double>(i + 1) / n);
  }
  return c;
}

empirical_cdf empirical_cdf::from_knots(
    std::vector<std::pair<double, double>> knots) {
  if (knots.empty()) throw std::invalid_argument{"empty CDF knots"};
  for (std::size_t i = 1; i < knots.size(); ++i) {
    if (knots[i].first < knots[i - 1].first ||
        knots[i].second < knots[i - 1].second) {
      throw std::invalid_argument{"CDF knots must be non-decreasing"};
    }
  }
  if (knots.back().second != 1.0) {
    throw std::invalid_argument{"last CDF knot must have cum_prob == 1"};
  }
  empirical_cdf c;
  c.knots_ = std::move(knots);
  return c;
}

double empirical_cdf::cdf(double x) const noexcept {
  if (knots_.empty()) return 0.0;
  if (x < knots_.front().first) return 0.0;
  if (x >= knots_.back().first) return 1.0;
  const auto it = std::upper_bound(
      knots_.begin(), knots_.end(), x,
      [](double v, const auto& k) { return v < k.first; });
  const auto& hi = *it;
  const auto& lo = *(it - 1);
  if (hi.first == lo.first) return hi.second;
  const double frac = (x - lo.first) / (hi.first - lo.first);
  return lo.second + frac * (hi.second - lo.second);
}

double empirical_cdf::quantile(double u) const noexcept {
  if (knots_.empty()) return 0.0;
  u = std::clamp(u, 0.0, 1.0);
  if (u <= knots_.front().second) return knots_.front().first;
  const auto it = std::lower_bound(
      knots_.begin(), knots_.end(), u,
      [](const auto& k, double v) { return k.second < v; });
  if (it == knots_.begin()) return knots_.front().first;
  if (it == knots_.end()) return knots_.back().first;
  const auto& hi = *it;
  const auto& lo = *(it - 1);
  if (hi.second == lo.second) return hi.first;
  const double frac = (u - lo.second) / (hi.second - lo.second);
  return lo.first + frac * (hi.first - lo.first);
}

double empirical_cdf::min_value() const noexcept {
  return knots_.empty() ? 0.0 : knots_.front().first;
}

double empirical_cdf::max_value() const noexcept {
  return knots_.empty() ? 0.0 : knots_.back().first;
}

double empirical_cdf::mean_value() const noexcept {
  if (knots_.empty()) return 0.0;
  // Integrate value over probability: sum of trapezoids in quantile space.
  double m = knots_.front().first * knots_.front().second;
  for (std::size_t i = 1; i < knots_.size(); ++i) {
    const double dp = knots_[i].second - knots_[i - 1].second;
    m += 0.5 * (knots_[i].first + knots_[i - 1].first) * dp;
  }
  return m;
}

}  // namespace lf
