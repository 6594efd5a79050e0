#include "core/adaptation_monitor.hpp"

#include <algorithm>

namespace lf::core {
namespace {

/// Consecutive sync checks with (necessary && !converged) before
/// adaptation_stuck fires.
constexpr std::size_t k_stuck_checks = 5;
/// Snapshot age (seconds since install) that, combined with a drifting
/// last verdict, raises stale_snapshot.
constexpr double k_stale_snapshot_age = 5.0;

/// adaptation_stuck observes 1 for a stuck check and 0 for any other.
constexpr metrics::rule_spec k_stuck_rule{
    metrics::breach_side::above,
    [](const metrics::rule_baseline&) { return 0.5; },
    /*warmup=*/0, /*fire_after=*/k_stuck_checks, /*rearm_after=*/1};
/// stale_snapshot observes the installed snapshot's age.
constexpr metrics::rule_spec k_stale_rule{
    metrics::breach_side::above,
    [](const metrics::rule_baseline&) { return k_stale_snapshot_age; },
    /*warmup=*/0, /*fire_after=*/1, /*rearm_after=*/1};

}  // namespace

std::string_view to_string(alert_kind k) noexcept {
  switch (k) {
    case alert_kind::adaptation_stuck: return "adaptation_stuck";
    case alert_kind::stale_snapshot: return "stale_snapshot";
  }
  return "unknown";
}

adaptation_monitor::adaptation_monitor(bool enabled)
    : enabled_{enabled}, stuck_{k_stuck_rule}, stale_{k_stale_rule} {}

void adaptation_monitor::raise(double now, alert_kind kind, double value) {
  alerts_fired_[slot(kind)].inc();
  alerts_.push_back(alert_record{now, kind, value, current_version_});
  trace_.emit(now, trace::event_type::alert,
              static_cast<std::uint64_t>(kind),
              static_cast<std::uint64_t>(std::max(0.0, value) * 1e9));
}

void adaptation_monitor::observe_staleness(double now) {
  // stale_snapshot: the installed version is old *and* the last verdict
  // still wanted an update (drift persists while nothing ships).  A
  // verdict that no longer drifts is a clean observation at any age.
  if (last_install_time_ < 0.0) return;
  const double age = now - last_install_time_;
  if (stale_.observe(now, last_drifting_ ? age : 0.0)) {
    raise(now, alert_kind::stale_snapshot, age);
  }
}

void adaptation_monitor::on_sync_check(double now,
                                       const check_observation& obs) {
  if (!enabled_) return;
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

  // adaptation_stuck: the model has drifted past the necessity threshold
  // but the stability metric will not converge — N consecutive checks of
  // "necessary && !converged" means the loop is stuck mid-exploration and
  // the kernel keeps serving a snapshot the slow path knows is wrong.  A
  // check made before the stability window filled could not have converged,
  // so it does not count.
  if (obs.window_full) {
    const bool stuck = obs.decision.necessary && !obs.decision.converged;
    if (stuck_.observe(now, stuck ? 1.0 : 0.0)) {
      raise(now, alert_kind::adaptation_stuck,
            static_cast<double>(stuck_.breach_run()));
    }
  }

  observe_staleness(now);
}

void adaptation_monitor::on_batch(double now) {
  if (!enabled_) return;
  observe_staleness(now);
}

void adaptation_monitor::on_snapshot_install(double now,
                                             const install_observation& obs) {
  if (!enabled_) return;
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
  stale_.rearm();
}

void adaptation_monitor::on_snapshot_removed(double now, std::uint64_t model) {
  if (!enabled_) return;
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
  return alerts_fired_[slot(k)].value();
}

std::uint64_t adaptation_monitor::total_alerts() const noexcept {
  return alerts_fired_[0].value() + alerts_fired_[1].value();
}

void adaptation_monitor::register_metrics(metrics::registry& reg,
                                          const std::string& prefix) {
  reg.register_counter(prefix + ".checks", checks_);
  for (const alert_kind k :
       {alert_kind::adaptation_stuck, alert_kind::stale_snapshot}) {
    reg.register_counter(prefix + ".alerts." + std::string{to_string(k)},
                         alerts_fired_[slot(k)]);
  }
  reg.register_series(prefix + ".fidelity.min_loss", fid_min_);
  reg.register_series(prefix + ".fidelity.mean_loss", fid_mean_);
  reg.register_series(prefix + ".fidelity.max_loss", fid_max_);
  reg.register_series(prefix + ".stability_spread", spread_);
  reg.register_series(prefix + ".snapshot_age", staleness_);
}

void adaptation_monitor::register_trace(trace::collector& col,
                                        const std::string& prefix) {
  col.attach(trace_, prefix);
}

}  // namespace lf::core
