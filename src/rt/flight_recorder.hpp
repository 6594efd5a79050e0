// Black-box flight recorder for the rt engine: per-worker overwrite-oldest
// wall-clock event rings that keep the last few thousand datapath events
// (sampled route summaries plus every switch, gate verdict, zombie push,
// reclaim, and violation) so an invariant failure or watchdog alert can dump
// a post-mortem — BLACKBOX_<label>.json, Perfetto-compatible through the
// same trace_report exporter the sim tracer uses.
//
// The rings are trace::rings in the wall_ns time domain; their slot
// protocol (util/trace.hpp) is what makes this safe:
//  - emit() is cheap and safe on the route hot path: atomic slots and a
//    fetch_add head claim.  Per-worker rings are single-writer (their
//    worker); the control ring is written by the writer, admin and sampler
//    threads, which the fetch_add makes safe without a lock.
//  - A dump can race live emitters.  snapshot() drops slots that are
//    mid-rewrite instead of decoding mixed fields; the dump is forensic,
//    not transactional.
//  - Timestamps are metrics::wall_ns() (steady clock), the same clock the
//    latency histograms use, so dumped events and latency windows line up.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>

#include "util/latency_histogram.hpp"
#include "util/trace.hpp"

namespace lf::rt {

/// Route summaries are sampled 1-in-2^k_blackbox_route_shift per worker;
/// lifecycle events (switches, verdicts, zombie pushes, reclaims,
/// violations) always record.
inline constexpr unsigned k_blackbox_route_shift = 6;

/// Live-telemetry knobs of a datapath_engine (engine_config::telemetry).
/// Everything defaults OFF: the route path then pays one predictable branch
/// for the histogram and one null check for the recorder (bench_micro pins
/// both), and no ring memory is allocated.
struct telemetry_config {
  /// Record route latency into the per-worker log2 histograms.
  bool latency = false;
  /// Sample 1-in-2^shift routes for timing (0 = every route).  Sampled
  /// routes pay two steady_clock reads; unsampled ones a branch + tick.
  unsigned latency_sample_shift = 0;
  /// Per-ring flight-recorder capacity in events; 0 disables the recorder.
  std::size_t blackbox_events = 0;
  /// flight_recorder::try_dump rate limit (anomaly capture): minimum
  /// spacing between dumps and a lifetime cap.  0 = unlimited.
  std::uint64_t blackbox_dump_interval_ns = 0;
  std::uint64_t blackbox_max_dumps = 0;
};

/// Emit into a recorder ring stamped with metrics::wall_ns().  The clock is
/// read only when the ring is enabled, so a disabled ring costs one branch.
inline void emit_now(trace::ring& r, trace::event_type type,
                     std::uint64_t a = 0, std::uint64_t b = 0) noexcept {
  if (r.enabled()) r.emit(static_cast<double>(metrics::wall_ns()), type, a, b);
}

/// The recorder proper: one control ring (writer/admin events) plus one ring
/// per worker slot, all sized telemetry_config::blackbox_events.
class flight_recorder {
 public:
  flight_recorder(const telemetry_config& cfg, std::size_t max_workers);

  bool enabled() const noexcept { return control_.enabled(); }

  trace::ring& control() noexcept { return control_; }
  trace::ring& worker(std::size_t i) noexcept { return workers_[i]; }
  std::size_t worker_rings() const noexcept { return workers_.size(); }

  /// Write BLACKBOX_<label>.json (Perfetto trace-event JSON, wall-ns time
  /// domain, so timestamps count from the oldest retained event) into
  /// bench::output_dir().  Returns the path written, or "" on failure
  /// (diagnostic on stderr).
  std::string dump(std::string_view label);

  /// Rate-limited dump for anomaly capture: writes
  /// BLACKBOX_<prefix>_<n>.json where n is a monotonic per-recorder dump
  /// sequence number, unless the config's min interval or lifetime cap says
  /// this dump must be suppressed (then counts the drop and returns "").
  /// A flapping watchdog therefore cannot flood the disk; the suppressed
  /// count is exported as rt.watchdog.dumps_suppressed.
  std::string try_dump(std::string_view prefix);

  /// try_dump()s actually written / suppressed so far (any thread).
  std::uint64_t dumps() const noexcept {
    return dumps_written_.load(std::memory_order_relaxed);
  }
  std::uint64_t dumps_suppressed() const noexcept {
    return dumps_suppressed_.load(std::memory_order_relaxed);
  }

 private:
  trace::ring control_{"rt.control"};
  std::deque<trace::ring> workers_;  ///< deque: rings are not movable
  std::uint64_t min_dump_interval_ns_ = 0;
  std::uint64_t max_dumps_ = 0;
  std::mutex dump_mu_;  ///< serializes the try_dump admission decision
  std::uint64_t last_dump_ns_ = 0;
  std::atomic<std::uint64_t> dumps_written_{0};
  std::atomic<std::uint64_t> dumps_suppressed_{0};
};

}  // namespace lf::rt
