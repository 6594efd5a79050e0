// Log2 latency histogram: HDR-style bucketing with one sub-bucket bit, 64
// buckets total, covering 1 ns .. ~3.2 s (everything above clamps into the
// top bucket).  The one histogram type: the rt engine's per-worker route
// latency, the stats sampler's windows and Prometheus exposition, and the
// trace-derived span distributions of the flight report all use it.
//
// Memory-ordering contract (the same single-writer shape as
// metrics::atomic_counter): each histogram is owned by exactly one writer
// thread, which is the only mutator.  record() is load(relaxed) + add +
// store(relaxed) on one bucket — no lock-prefixed RMW ever touches the hot
// path, so the enabled cost is the bucket index math (a count-leading-zeros
// and two shifts) plus one L1-resident load/store.  The stats sampler reads
// the buckets with relaxed loads from another thread; it may observe a
// snapshot that is a few events stale or that tears *across* buckets (bucket
// i from instant T1, bucket j from T2), but never a torn single count and
// never a decreasing one.  Windowed deltas therefore always subtract
// monotonically non-decreasing values.
//
// The quantile estimator interpolates linearly within the crossing bucket,
// so p50 <= p99 <= p999 by construction on any snapshot.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace lf::metrics {

/// Steady-clock nanoseconds (arbitrary epoch, monotonic).  One shared clock
/// for latency deltas and flight-recorder timestamps so recorder events and
/// histogram samples line up on the same timeline.
inline std::uint64_t wall_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Off-thread copy of a histogram's buckets: plain integers, mergeable and
/// subtractable (for per-window deltas), with quantile estimation.
struct latency_snapshot {
  static constexpr std::size_t k_buckets = 64;

  std::array<std::uint64_t, k_buckets> counts{};

  std::uint64_t total() const noexcept {
    std::uint64_t n = 0;
    for (const auto c : counts) n += c;
    return n;
  }

  latency_snapshot& merge(const latency_snapshot& o) noexcept {
    for (std::size_t i = 0; i < k_buckets; ++i) counts[i] += o.counts[i];
    return *this;
  }

  /// Per-window delta: *this (later) minus `earlier`.  Valid because every
  /// bucket is monotonically non-decreasing on the writer side.
  latency_snapshot delta_since(const latency_snapshot& earlier) const noexcept {
    latency_snapshot d;
    for (std::size_t i = 0; i < k_buckets; ++i) {
      d.counts[i] = counts[i] - earlier.counts[i];
    }
    return d;
  }

  /// Quantile q in [0, 1] in nanoseconds, interpolated within the crossing
  /// bucket.  0 for an empty snapshot.
  double quantile(double q) const noexcept;

  /// Mean estimated from bucket midpoints (exact for the 0/1 ns buckets).
  double approx_mean_ns() const noexcept;
};

/// The recording side.  Cache-line padding is the *owner's* job: the rt
/// engine's worker_handle is alignas(128), and its histogram sits inside it
/// next to the worker's other single-writer counters.
class latency_histogram {
 public:
  static constexpr std::size_t k_buckets = latency_snapshot::k_buckets;

  /// Bucket for a nanosecond value: one power-of-two exponent bucket split
  /// once by the next-lower bit.  0 and 1 get their own buckets; index 63
  /// (values >= 3.2 s) absorbs the tail.
  static constexpr std::size_t bucket_index(std::uint64_t ns) noexcept {
    if (ns < 2) return static_cast<std::size_t>(ns);
    const auto e = static_cast<unsigned>(std::bit_width(ns)) - 1;  // >= 1
    const auto sub = static_cast<std::size_t>((ns >> (e - 1)) & 1u);
    const std::size_t i = (static_cast<std::size_t>(e) << 1) | sub;
    return i < k_buckets ? i : k_buckets - 1;
  }

  /// Smallest nanosecond value that lands in bucket i.
  static constexpr std::uint64_t bucket_floor(std::size_t i) noexcept {
    if (i < 2) return i;
    const auto e = static_cast<unsigned>(i >> 1);
    const std::uint64_t base = std::uint64_t{1} << e;
    return base | ((i & 1) ? (base >> 1) : 0);
  }

  /// Width of bucket i in nanoseconds (1 for the two unit buckets).
  static constexpr std::uint64_t bucket_width(std::size_t i) noexcept {
    if (i < 2) return 1;
    return std::uint64_t{1} << (static_cast<unsigned>(i >> 1) - 1);
  }

  /// Hot path (owner thread only): one bucket-index computation plus a
  /// relaxed load+store.  `n` records the value n times (route_batch
  /// spreads one timed batch over its flows as the mean per-flow delta).
  void record(std::uint64_t ns, std::uint64_t n = 1) noexcept {
    auto& b = counts_[bucket_index(ns)];
    b.store(b.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  /// Off-thread read (sampler / report path): accumulate into `out`.
  void snapshot_into(latency_snapshot& out) const noexcept {
    for (std::size_t i = 0; i < k_buckets; ++i) {
      out.counts[i] += counts_[i].load(std::memory_order_relaxed);
    }
  }

  /// Owner-thread (or quiesced) reset between runs.
  void reset() noexcept {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, k_buckets> counts_{};
};

inline double latency_snapshot::quantile(double q) const noexcept {
  const std::uint64_t n = total();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < k_buckets; ++i) {
    const std::uint64_t c = counts[i];
    if (c == 0) continue;
    if (static_cast<double>(seen + c) >= target) {
      const double within =
          (target - static_cast<double>(seen)) / static_cast<double>(c);
      return static_cast<double>(latency_histogram::bucket_floor(i)) +
             static_cast<double>(latency_histogram::bucket_width(i)) *
                 std::clamp(within, 0.0, 1.0);
    }
    seen += c;
  }
  return static_cast<double>(
      latency_histogram::bucket_floor(k_buckets - 1) +
      latency_histogram::bucket_width(k_buckets - 1));
}

inline double latency_snapshot::approx_mean_ns() const noexcept {
  const std::uint64_t n = total();
  if (n == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < k_buckets; ++i) {
    if (counts[i] == 0) continue;
    const double mid =
        static_cast<double>(latency_histogram::bucket_floor(i)) +
        0.5 * static_cast<double>(latency_histogram::bucket_width(i));
    sum += mid * static_cast<double>(counts[i]);
  }
  return sum / static_cast<double>(n);
}

}  // namespace lf::metrics
