#include "rt/stats_sampler.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "rt/anomaly_watchdog.hpp"
#include "util/bench_report.hpp"

namespace lf::rt {
namespace {

/// Cap on retained windows (oldest dropped past this; keeps a runaway soak
/// test from growing the vector unboundedly).
constexpr std::size_t k_max_windows = 100000;

}  // namespace

stats_sampler::stats_sampler(datapath_engine& engine, stats_sampler_config cfg)
    : engine_{engine}, cfg_{std::move(cfg)} {
  ts_shadow_divergence_.reserve(engine_.model_count());
  for (std::size_t m = 0; m < engine_.model_count(); ++m) {
    ts_shadow_divergence_.push_back(std::make_unique<time_series>(
        "rt.ts.shadow_divergence.m" + std::to_string(m)));
  }
  start_ns_ = metrics::wall_ns();
  prev_ns_ = start_ns_;
  prev_counters_ = engine_.counters_now();
  engine_.latency_snapshot_into(prev_latency_);
}

stats_sampler::~stats_sampler() { stop(); }

void stats_sampler::start() {
  if (!enabled() || started_) return;
  started_ = true;
  stopping_ = false;
  final_folded_ = false;
  thread_ = std::thread{[this] { run(); }};
}

void stats_sampler::stop() {
  if (started_) {
    {
      std::lock_guard<std::mutex> g{wake_mu_};
      stopping_ = true;
    }
    wake_cv_.notify_all();
    thread_.join();
    started_ = false;
  }
  // Final fold so the tail of the run (joined-but-unsampled work) still
  // lands in a window and the on-disk text dump reflects end-of-run state.
  // Exactly once: tick() stamps the window with the measured (shorter)
  // tail duration, so a second stop — the destructor after an explicit
  // stop() — must not fold again or it would append a near-zero-dt window
  // and skew the tail routes/sec.
  if (final_folded_) return;
  final_folded_ = true;
  tick();
  write_text();
}

void stats_sampler::run() {
  const auto interval =
      std::chrono::duration<double, std::milli>{cfg_.interval_ms};
  std::unique_lock<std::mutex> lk{wake_mu_};
  while (!stopping_) {
    if (wake_cv_.wait_for(lk, interval, [this] { return stopping_; })) break;
    lk.unlock();
    tick();
    write_text();
    lk.lock();
  }
}

void stats_sampler::tick() {
  std::lock_guard<std::mutex> g{fold_mu_};
  const std::uint64_t now_ns = metrics::wall_ns();
  const datapath_engine::live_counters c = engine_.counters_now();
  metrics::latency_snapshot lat;
  engine_.latency_snapshot_into(lat);
  const metrics::latency_snapshot delta = lat.delta_since(prev_latency_);

  stats_window w;
  w.t_s = static_cast<double>(now_ns - start_ns_) * 1e-9;
  w.dt_s = static_cast<double>(now_ns - prev_ns_) * 1e-9;
  w.routes = c.routes - prev_counters_.routes;
  w.routes_per_sec =
      w.dt_s > 0.0 ? static_cast<double>(w.routes) / w.dt_s : 0.0;
  w.samples = delta.total();
  if (w.samples != 0) {
    w.p50_ns = delta.quantile(0.50);
    w.p99_ns = delta.quantile(0.99);
    w.p999_ns = delta.quantile(0.999);
  }
  const std::uint64_t d_l1 = c.l1_hits - prev_counters_.l1_hits;
  const std::uint64_t d_locks =
      c.lock_acquisitions - prev_counters_.lock_acquisitions;
  w.l1_hit_rate = w.routes == 0 ? 0.0
                                : static_cast<double>(d_l1) /
                                      static_cast<double>(w.routes);
  w.locks_per_route = w.routes == 0 ? 0.0
                                    : static_cast<double>(d_locks) /
                                          static_cast<double>(w.routes);
  w.versions_live = c.versions_live;
  w.versions_retired = c.versions_retired;

  windows_.push_back(w);
  if (windows_.size() > k_max_windows) {
    windows_.erase(windows_.begin(),
                   windows_.begin() +
                       static_cast<std::ptrdiff_t>(windows_.size() -
                                                   k_max_windows));
  }
  ts_routes_per_sec_.record(w.t_s, w.routes_per_sec);
  if (w.samples != 0) {
    // Empty windows record nothing: a gap in the percentile series means
    // "no timed routes here", not "latency was zero".
    ts_p50_.record(w.t_s, w.p50_ns);
    ts_p99_.record(w.t_s, w.p99_ns);
    ts_p999_.record(w.t_s, w.p999_ns);
  }
  if (w.routes != 0) {
    ts_l1_hit_rate_.record(w.t_s, w.l1_hit_rate);
    ts_locks_per_route_.record(w.t_s, w.locks_per_route);
  }
  ts_versions_live_.record(w.t_s, static_cast<double>(w.versions_live));
  ts_versions_retired_.record(w.t_s, static_cast<double>(w.versions_retired));
  double max_shadow_divergence = 0.0;
  for (std::size_t m = 0; m < ts_shadow_divergence_.size(); ++m) {
    const core::shadow_verdict v =
        engine_.shadow_evidence(static_cast<core::model_key>(m));
    if (v.samples != 0) {
      ts_shadow_divergence_[m]->record(w.t_s, v.mean_divergence);
      max_shadow_divergence =
          std::max(max_shadow_divergence, v.mean_divergence);
    }
  }
  // Anomaly detection rides the fold: the sampler thread is the watchdog's
  // evaluation thread, so detection costs the datapath nothing.  A
  // post-switch regression may roll the last switch back right here (the
  // watchdog's rollback policy), before the probation clock below ages the
  // hold toward its clean close.
  if (watchdog_ != nullptr) watchdog_->observe(w, max_shadow_divergence);
  // Probation clock: open holds age one sampler window per fold and close
  // cleanly at engine_config::probation_windows.  No-op when probation is
  // off, which keeps the probation-less tick byte-identical.
  engine_.probation_tick();
  prev_ns_ = now_ns;
  prev_counters_ = c;
  prev_latency_ = lat;

  // publish_stats() is mid-run-safe (single-writer relaxed inputs), so the
  // registered gauges stay fresh for anything dumping the registry mid-run.
  engine_.publish_stats();
}

std::vector<stats_window> stats_sampler::windows() const {
  std::lock_guard<std::mutex> g{fold_mu_};
  return windows_;
}

void stats_sampler::register_metrics(metrics::registry& reg,
                                     const std::string& prefix) {
  reg.register_series(prefix + ".ts.routes_per_sec", ts_routes_per_sec_);
  reg.register_series(prefix + ".ts.p50_ns", ts_p50_);
  reg.register_series(prefix + ".ts.p99_ns", ts_p99_);
  reg.register_series(prefix + ".ts.p999_ns", ts_p999_);
  reg.register_series(prefix + ".ts.l1_hit_rate", ts_l1_hit_rate_);
  reg.register_series(prefix + ".ts.locks_per_route", ts_locks_per_route_);
  reg.register_series(prefix + ".ts.versions_live", ts_versions_live_);
  reg.register_series(prefix + ".ts.versions_retired", ts_versions_retired_);
  for (std::size_t m = 0; m < ts_shadow_divergence_.size(); ++m) {
    reg.register_series(prefix + ".ts.shadow_divergence.m" + std::to_string(m),
                        *ts_shadow_divergence_[m]);
  }
}

std::string stats_sampler::render_text() const {
  const datapath_engine::live_counters c = engine_.counters_now();
  metrics::latency_snapshot lat;
  engine_.latency_snapshot_into(lat);

  std::ostringstream os;
  const auto counter = [&os](const char* name, std::uint64_t v) {
    os << "# TYPE " << name << " counter\n" << name << " " << v << "\n";
  };
  const auto gauge = [&os](const char* name, std::uint64_t v) {
    os << "# TYPE " << name << " gauge\n" << name << " " << v << "\n";
  };
  counter("lf_rt_routes_total", c.routes);
  counter("lf_rt_l1_hits_total", c.l1_hits);
  counter("lf_rt_l2_hits_total", c.l2_hits);
  counter("lf_rt_misses_total", c.misses);
  counter("lf_rt_inferences_total", c.inferences);
  counter("lf_rt_shadow_inferences_total", c.shadow_inferences);
  counter("lf_rt_fins_total", c.fins);
  counter("lf_rt_batches_total", c.batches);
  counter("lf_rt_cache_evictions_total", c.cache_evictions);
  counter("lf_rt_lock_acquisitions_total", c.lock_acquisitions);
  counter("lf_rt_lock_contended_total", c.lock_contended);
  counter("lf_rt_read_retries_total", c.read_retries);
  counter("lf_rt_read_fallbacks_total", c.read_fallbacks);
  counter("lf_rt_installs_total", c.installs);
  counter("lf_rt_switches_total", c.switches);
  counter("lf_rt_switch_noops_total", c.switch_noops);
  counter("lf_rt_gate_blocks_total", c.gate_blocks);
  if (engine_.config().probation_windows != 0) {
    // Only rendered for probation deployments: the clean-run exposition
    // must stay byte-identical when the feature is off.
    counter("lf_rt_rollbacks_total", c.rollbacks);
    counter("lf_rt_rollback_noops_total", c.rollback_noops);
  }
  gauge("lf_rt_cache_size", c.cache_size);
  gauge("lf_rt_versions_live", c.versions_live);
  gauge("lf_rt_versions_retired", c.versions_retired);
  if (watchdog_ != nullptr) {
    counter("lf_rt_watchdog_incidents_total", watchdog_->incident_count());
    counter("lf_rt_watchdog_dumps_total", watchdog_->dumps());
    counter("lf_rt_watchdog_dumps_suppressed_total",
            watchdog_->dumps_suppressed());
  }

  // Cumulative-`le` histogram in nanoseconds; _sum is approximated from
  // bucket midpoints (the recorder keeps counts, not exact sums).
  os << "# TYPE lf_rt_route_latency_ns histogram\n";
  std::uint64_t cum = 0;
  using metrics::latency_histogram;
  constexpr std::size_t k_buckets = latency_histogram::k_buckets;
  for (std::size_t i = 0; i < k_buckets; ++i) {
    cum += lat.counts[i];
    if (lat.counts[i] == 0 && i + 1 != k_buckets) continue;
    const std::uint64_t hi = latency_histogram::bucket_floor(i) +
                             latency_histogram::bucket_width(i);
    os << "lf_rt_route_latency_ns_bucket{le=\"";
    if (i + 1 == k_buckets) {
      os << "+Inf";
    } else {
      os << hi;
    }
    os << "\"} " << cum << "\n";
  }
  os << "lf_rt_route_latency_ns_sum "
     << lat.approx_mean_ns() * static_cast<double>(lat.total()) << "\n";
  os << "lf_rt_route_latency_ns_count " << lat.total() << "\n";
  return os.str();
}

bool stats_sampler::write_text() const {
  return !cfg_.text_out.empty() &&
         !bench::write_artifact(cfg_.text_out, render_text()).empty();
}

}  // namespace lf::rt
