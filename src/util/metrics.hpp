// Telemetry registry: one metrics spine every layer reports through.
//
// Design rules (the kernel-datapath constraints of the paper apply to the
// instrumentation too):
//  - Components *own* their metric objects as plain members.  The hot-path
//    operations (counter::inc, gauge::add, and latency_histogram::record in
//    util/latency_histogram.hpp) are inline arithmetic on those members —
//    no map lookup, no locking, no allocation, and identical cost whether
//    or not a registry ever sees them ("zero-overhead when unregistered").
//  - A registry is a borrowing name -> metric* index built at wiring time
//    (experiment setup), used only on the reporting path: enumeration,
//    scalar snapshots for BENCH_*.json, and reset between runs.
//  - Re-registering a name rebinds it (components are torn down and rebuilt
//    between runs); registering never transfers ownership.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/time_series.hpp"

namespace lf::metrics {

/// Monotonic event count.  The increment path is a single add.
class counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Single-writer counter whose value may be *read* from other threads while
/// the writer is still incrementing (the rt stats sampler, a mid-run
/// publish_stats()).  The increment stays a plain load+add+store — no
/// lock-prefixed RMW on the hot path — which is exactly correct for the
/// one-writer-many-readers shape: the owning thread is the only mutator, so
/// load(relaxed)+n never loses an update, and readers get some recent value
/// without a data race.  Cross-thread readers must tolerate slightly stale
/// counts; they never see torn or decreasing ones.
class atomic_counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.store(value_.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A level that can move both ways (queue depth, accumulated CPU-seconds).
class gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double v) noexcept { value_ += v; }
  double value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// Borrowing name -> metric index.  Not an owner: the registered objects
/// must outlive the registry or be unregistered/rebound first.
class registry {
 public:
  void register_counter(std::string name, counter& c);
  void register_counter(std::string name, atomic_counter& c);
  void register_gauge(std::string name, gauge& g);
  void register_series(std::string name, time_series& s);

  /// Remove one binding; no-op if absent.
  void unregister(std::string_view name);

  counter* find_counter(std::string_view name) const noexcept;
  atomic_counter* find_atomic_counter(std::string_view name) const noexcept;
  gauge* find_gauge(std::string_view name) const noexcept;
  time_series* find_series(std::string_view name) const noexcept;

  bool contains(std::string_view name) const noexcept;
  std::size_t size() const noexcept { return bindings_.size(); }

  /// Every counter and gauge flattened to (name, value).  Sorted by name
  /// (map order) so output is deterministic.
  std::vector<std::pair<std::string, double>> scalars() const;

  /// Reset every registered metric (between experiment runs); registered
  /// time series are cleared.
  void reset_all();

 private:
  enum class metric_kind { counter, atomic_counter, gauge, series };

  struct binding {
    metric_kind kind;
    void* ptr;
  };

  void bind(std::string name, metric_kind kind, void* ptr);
  const binding* find(std::string_view name, metric_kind kind) const noexcept;

  std::map<std::string, binding, std::less<>> bindings_;
};

}  // namespace lf::metrics
