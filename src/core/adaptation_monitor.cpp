#include "core/adaptation_monitor.hpp"

#include <algorithm>
#include <cstdlib>

namespace lf::core {

monitor_config monitor_config::from_env() {
  monitor_config cfg;
  if (const char* v = std::getenv("LF_MONITOR")) {
    cfg.enabled = std::atoi(v) != 0;
  }
  return cfg;
}

std::string_view to_string(alert_kind k) noexcept {
  switch (k) {
    case alert_kind::adaptation_stuck: return "adaptation_stuck";
    case alert_kind::flow_cache_pressure: return "flow_cache_pressure";
    case alert_kind::stale_snapshot: return "stale_snapshot";
  }
  return "unknown";
}

adaptation_monitor::adaptation_monitor(monitor_config config)
    : config_{config} {}

void adaptation_monitor::raise(double now, alert_kind kind, double value) {
  alert_counters_[static_cast<std::size_t>(kind)].inc();
  alerts_.push_back(alert_record{now, kind, value, current_version_});
  trace_.emit(now, trace::event_type::alert,
              static_cast<std::uint64_t>(kind),
              static_cast<std::uint64_t>(std::max(0.0, value) * 1e9));
}

void adaptation_monitor::check_time_rules(double now, std::size_t cache_size,
                                          std::size_t cache_capacity) {
  // flow_cache_pressure: occupancy at/above the high-watermark fraction.
  if (cache_capacity > 0) {
    const double occupancy = static_cast<double>(cache_size) /
                             static_cast<double>(cache_capacity);
    if (occupancy >= config_.cache_high_watermark) {
      if (!pressure_active_) {
        pressure_active_ = true;
        raise(now, alert_kind::flow_cache_pressure, occupancy);
      }
    } else {
      pressure_active_ = false;
    }
  }

  // stale_snapshot: the installed version is old *and* the last verdict
  // still wanted an update (drift persists while nothing ships).
  if (last_install_time_ >= 0.0) {
    const double age = now - last_install_time_;
    if (age > config_.stale_snapshot_age && last_drifting_) {
      if (!stale_active_) {
        stale_active_ = true;
        raise(now, alert_kind::stale_snapshot, age);
      }
    } else if (age <= config_.stale_snapshot_age || !last_drifting_) {
      stale_active_ = false;
    }
  }
}

void adaptation_monitor::on_sync_check(double now,
                                       const check_observation& obs) {
  if (!config_.enabled) return;
  checks_.inc();
  current_version_ = obs.version;
  last_threshold_ = obs.threshold;
  last_drifting_ = obs.decision.necessary;

  fid_min_.record(now, obs.decision.fidelity.min_loss);
  fid_mean_.record(now, obs.decision.fidelity.mean_loss);
  fid_max_.record(now, obs.decision.fidelity.max_loss);
  spread_.record(now, obs.stability_spread);
  if (last_install_time_ >= 0.0) {
    staleness_.record(now, now - last_install_time_);
  }
  if (obs.cache_capacity > 0) {
    occupancy_.record(now, static_cast<double>(obs.cache_size) /
                               static_cast<double>(obs.cache_capacity));
  }

  // adaptation_stuck: the model has drifted past the necessity threshold
  // but the stability metric will not converge — N consecutive checks of
  // "necessary && !converged" means the loop is stuck mid-exploration and
  // the kernel keeps serving a snapshot the slow path knows is wrong.
  if (obs.decision.necessary && !obs.decision.converged) {
    ++consecutive_stuck_;
    if (consecutive_stuck_ >= config_.stuck_checks && !stuck_active_) {
      stuck_active_ = true;
      raise(now, alert_kind::adaptation_stuck,
            static_cast<double>(consecutive_stuck_));
    }
  } else {
    consecutive_stuck_ = 0;
    stuck_active_ = false;
  }

  check_time_rules(now, obs.cache_size, obs.cache_capacity);
}

void adaptation_monitor::on_batch(double now, std::size_t cache_size,
                                  std::size_t cache_capacity) {
  if (!config_.enabled) return;
  check_time_rules(now, cache_size, cache_capacity);
}

void adaptation_monitor::on_snapshot_install(double now,
                                             const install_observation& obs) {
  if (!config_.enabled) return;
  // Close out the demoted predecessor.
  if (obs.prev_model != 0) {
    for (auto it = ledger_.rbegin(); it != ledger_.rend(); ++it) {
      if (it->model == obs.prev_model && it->retire_time < 0.0) {
        it->retire_time = now;
        it->pinned_at_retire = obs.prev_pinned;
        break;
      }
    }
  }

  snapshot_record rec;
  rec.version = obs.version;
  rec.model = obs.model;
  rec.logical_model = obs.logical_model;
  rec.initial = obs.initial;
  rec.install_time = now;
  rec.freeze_seconds = obs.freeze_seconds;
  rec.quantize_seconds = obs.quantize_seconds;
  rec.translate_seconds = obs.translate_seconds;
  rec.compile_seconds = obs.compile_seconds;
  rec.install_seconds = obs.install_seconds;
  rec.switch_wait_seconds = obs.switch_wait_seconds;
  rec.fidelity_min = obs.fidelity.min_loss;
  rec.fidelity_mean = obs.fidelity.mean_loss;
  rec.fidelity_max = obs.fidelity.max_loss;
  ledger_.push_back(rec);

  last_install_time_ = now;
  current_version_ = obs.version;
  // A fresh snapshot resets the drift view until the next verdict.
  last_drifting_ = false;
  stale_active_ = false;
}

void adaptation_monitor::on_snapshot_removed(double now, std::uint64_t model) {
  if (!config_.enabled) return;
  for (auto it = ledger_.rbegin(); it != ledger_.rend(); ++it) {
    if (it->model == model && it->removed_time < 0.0) {
      it->removed_time = now;
      // A module unloaded without an explicit demotion (e.g. force-removed)
      // still gets a retirement stamp so drain_seconds() is well defined.
      if (it->retire_time < 0.0) it->retire_time = now;
      return;
    }
  }
}

std::uint64_t adaptation_monitor::alert_count(alert_kind k) const noexcept {
  return alert_counters_[static_cast<std::size_t>(k)].value();
}

std::uint64_t adaptation_monitor::total_alerts() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : alert_counters_) total += c.value();
  return total;
}

void adaptation_monitor::register_metrics(metrics::registry& reg,
                                          const std::string& prefix) {
  reg.register_counter(prefix + ".checks", checks_);
  for (std::size_t k = 0; k < alert_kind_count; ++k) {
    reg.register_counter(
        prefix + ".alerts." +
            std::string{to_string(static_cast<alert_kind>(k))},
        alert_counters_[k]);
  }
  reg.register_series(prefix + ".fidelity.min_loss", fid_min_);
  reg.register_series(prefix + ".fidelity.mean_loss", fid_mean_);
  reg.register_series(prefix + ".fidelity.max_loss", fid_max_);
  reg.register_series(prefix + ".stability_spread", spread_);
  reg.register_series(prefix + ".snapshot_age", staleness_);
  reg.register_series(prefix + ".cache_occupancy", occupancy_);
}

void adaptation_monitor::register_trace(trace::collector& col,
                                        const std::string& prefix) {
  col.attach(trace_, prefix);
}

}  // namespace lf::core
