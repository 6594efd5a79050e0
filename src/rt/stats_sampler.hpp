// Windowed stats sampler for the rt engine: a background thread that folds
// the engine's single-writer relaxed counters into fixed-interval windows
// while the workers are still routing.
//
// Every tick it takes a counters_now() snapshot plus a merged latency
// snapshot, subtracts the previous tick's values (valid because every input
// is monotonically non-decreasing on its writer thread), and appends one
// window: routes/sec, latency p50/p99/p999 over the window's own samples,
// locks per route, L1 hit rate, live/retired version counts, and per-model
// shadow divergence.  The windows feed:
//  - lf::time_series registered under "<prefix>.ts.*" so the bench report
//    and the HTML run report can plot telemetry over time, and
//  - an optional Prometheus-style text exposition (render_text), rewritten
//    atomically-enough (truncate + write) every tick so an external scraper
//    or a post-mortem always finds a recent snapshot on disk.
//
// The sampler only *reads* engine state through mid-run-safe paths
// (counters_now, latency_snapshot_into, shadow_evidence, publish_stats), so
// it imposes zero cost on the route hot path beyond the cache traffic of
// reading the workers' counter lines ~10x a second.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rt/engine.hpp"
#include "util/metrics.hpp"
#include "util/time_series.hpp"

namespace lf::rt {

struct stats_sampler_config {
  /// Window length.  <= 0 disables the sampler entirely (start() no-ops).
  double interval_ms = 100.0;
  /// Prometheus-style text dump rewritten every tick ("" = no file).
  /// Published atomically (temp file + rename) so a concurrent scraper
  /// never reads a torn exposition.
  std::string text_out;
};

/// One folded window.
struct stats_window {
  double t_s = 0.0;    ///< window end, seconds since sampler start
  double dt_s = 0.0;   ///< measured window length (not the nominal interval)
  std::uint64_t routes = 0;        ///< routes completed in this window
  double routes_per_sec = 0.0;
  std::uint64_t samples = 0;       ///< latency samples in this window
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
  double l1_hit_rate = 0.0;        ///< window L1 hits / window routes
  double locks_per_route = 0.0;    ///< window lock acquisitions / routes
  std::uint64_t versions_live = 0;
  std::uint64_t versions_retired = 0;
};

class anomaly_watchdog;

class stats_sampler {
 public:
  stats_sampler(datapath_engine& engine, stats_sampler_config cfg);
  stats_sampler(const stats_sampler&) = delete;
  stats_sampler& operator=(const stats_sampler&) = delete;
  ~stats_sampler();  ///< stop()s if still running

  bool enabled() const noexcept { return cfg_.interval_ms > 0.0; }
  const stats_sampler_config& config() const noexcept { return cfg_; }

  /// Spawn the background thread (idempotent; no-op when disabled).
  void start();

  /// Stop the thread, fold one final window, and write the final text dump.
  /// Safe to call repeatedly; called by the destructor.  The final tail
  /// fold happens exactly once per start (a second stop — e.g. explicit
  /// stop followed by the destructor — must not append a spurious
  /// near-zero-duration window that would misreport the tail rate).
  void stop();

  /// Run every folded window through this watchdog from inside tick() (the
  /// sampler thread IS the watchdog's evaluation thread — detection adds
  /// zero hot-path work).  Call before start(); null detaches.
  void attach_watchdog(anomaly_watchdog* wd) noexcept { watchdog_ = wd; }
  anomaly_watchdog* watchdog() const noexcept { return watchdog_; }

  /// Fold one window right now (what the thread does each interval; also
  /// callable directly from tests without starting the thread).
  void tick();

  /// Copy of the windows folded so far (any thread), at most the latest
  /// 100000.
  std::vector<stats_window> windows() const;

  /// Register the windowed series under "<prefix>.ts.*" and per-model
  /// shadow divergence under "<prefix>.ts.shadow_divergence.m<k>".
  void register_metrics(metrics::registry& reg, const std::string& prefix);

  /// Prometheus-style text exposition: cumulative counters, version gauges,
  /// and the merged route-latency histogram with cumulative `le` buckets.
  std::string render_text() const;

  /// Atomically replace config().text_out with render_text() (sibling temp
  /// file + rename, so a mid-tick reader parses either the old or the new
  /// exposition, never a truncated one).  False when no path is configured
  /// or the write failed (diagnostic on stderr).
  bool write_text() const;

 private:
  void run();

  datapath_engine& engine_;
  stats_sampler_config cfg_;
  anomaly_watchdog* watchdog_ = nullptr;

  std::thread thread_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stopping_ = false;
  bool started_ = false;
  bool final_folded_ = false;    ///< tail window folded (stop ran once)

  // Everything below is guarded by fold_mu_: tick() may be called from the
  // sampler thread, from stop(), or directly by a test.
  mutable std::mutex fold_mu_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t prev_ns_ = 0;
  datapath_engine::live_counters prev_counters_{};
  metrics::latency_snapshot prev_latency_{};
  std::vector<stats_window> windows_;
  time_series ts_routes_per_sec_{"rt.ts.routes_per_sec"};
  time_series ts_p50_{"rt.ts.p50_ns"};
  time_series ts_p99_{"rt.ts.p99_ns"};
  time_series ts_p999_{"rt.ts.p999_ns"};
  time_series ts_l1_hit_rate_{"rt.ts.l1_hit_rate"};
  time_series ts_locks_per_route_{"rt.ts.locks_per_route"};
  time_series ts_versions_live_{"rt.ts.versions_live"};
  time_series ts_versions_retired_{"rt.ts.versions_retired"};
  std::vector<std::unique_ptr<time_series>> ts_shadow_divergence_;
};

}  // namespace lf::rt
