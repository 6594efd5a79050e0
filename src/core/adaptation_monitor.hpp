// Adaptation health monitor (observability over §3.3/§3.4).
//
// The sync evaluator decides *whether* to push a snapshot; this component
// records *why* — per-check fidelity drift, stability-metric spread and
// snapshot staleness — and runs two alert rules over that state, each a
// metrics::alert_rule (util/alert_rule.hpp, the rule engine the rt
// watchdog runs too):
//
//   adaptation_stuck    drift above the necessity threshold while the
//                       stability metric refuses to converge, for 5
//                       consecutive sync checks.  The classic "stuck
//                       mid-exploration" failure of adaptation loops: the
//                       kernel keeps serving a model the slow path already
//                       knows is wrong.
//   stale_snapshot      the installed snapshot is older than 5 s while the
//                       last verdict still said an update is necessary —
//                       the datapath is running stale code.  Watched at
//                       every sync check and every batch delivery; an
//                       install re-arms it.
//
// Alerts are edge-triggered: a rule fires once when its condition becomes
// true and re-arms only after the condition clears, so alert counts stay
// proportional to distinct incidents, not to check frequency.
//
// The monitor also keeps the snapshot lifecycle ledger: one record per
// installed version (install time, estimated pipeline stage costs, switch
// lock wait, fidelity at install, flows pinned on the retiring snapshot and
// its drain time).  The ledger is what the per-run HTML flight report
// (util/run_report.hpp) renders as a table.
//
// Contract: the monitor is strictly read-only and attach-at-wiring, exactly
// like metrics::registry and trace::collector.  Components hold a pointer
// that stays null unless an *enabled* monitor is registered, so a disabled
// monitor costs one branch per hook site and a fixed-seed run produces
// bit-for-bit identical results with or without it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/sync_evaluator.hpp"
#include "util/alert_rule.hpp"
#include "util/metrics.hpp"
#include "util/time_series.hpp"
#include "util/trace.hpp"

namespace lf::core {

/// The codes are the trace `alert` event's `a` payload; 1 is retired
/// (DESIGN.md §9) and stays unused so old traces keep their meaning.
enum class alert_kind : std::uint8_t {
  adaptation_stuck = 0,
  stale_snapshot = 2,
};

std::string_view to_string(alert_kind k) noexcept;

/// One fired watchdog alert.
struct alert_record {
  double t = 0.0;
  alert_kind kind{};
  /// Rule-specific magnitude: consecutive stuck checks, or snapshot age in
  /// seconds.
  double value = 0.0;
  /// Installed snapshot version when the alert fired.
  std::uint64_t version = 0;
};

/// One row of the snapshot lifecycle ledger.  Stage costs are *accounting
/// estimates* derived from the cost model and the model's parameter count —
/// they are never charged to the simulated CPU (the §3.1 pipeline runs out
/// of band in the paper too), so attaching the monitor cannot perturb a run.
struct snapshot_record {
  std::uint64_t version = 0;
  std::uint64_t model = 0;  ///< engine generation of the installed version
  /// Logical model (core::model_key) this snapshot serves; 0 for every
  /// single-model deployment.
  std::uint32_t logical_model = 0;
  bool initial = false;     ///< v1 bootstrap deployment (not a §3.3 re-sync)
  double install_time = 0.0;

  // Estimated §3.1 pipeline stage costs, seconds.
  double freeze_seconds = 0.0;
  double quantize_seconds = 0.0;
  double translate_seconds = 0.0;
  double compile_seconds = 0.0;
  /// Actual simulated standby-install cost (parameter copy into the kernel).
  double install_seconds = 0.0;
  /// Lock wait of the active/standby pointer flip, seconds.
  double switch_wait_seconds = 0.0;

  /// Fidelity verdict that triggered this install (zeros for the initial
  /// deployment, which ships before any sync check).
  double fidelity_min = 0.0;
  double fidelity_mean = 0.0;
  double fidelity_max = 0.0;

  /// Set when the *next* version demotes this one.
  double retire_time = -1.0;            ///< < 0 while still active
  std::uint64_t pinned_at_retire = 0;   ///< flow-cache refs at demotion
  double removed_time = -1.0;           ///< < 0 until the module unloads

  /// Retirement-to-unload drain, or a negative value while still draining
  /// (or still active).
  double drain_seconds() const noexcept {
    return (retire_time >= 0.0 && removed_time >= 0.0)
               ? removed_time - retire_time
               : -1.0;
  }
};

/// What the userspace service observed at one sync check.
struct check_observation {
  sync_decision decision{};
  double threshold = 0.0;  ///< alpha * (Omax - Omin) at this check
  double stability_spread = 0.0;
  /// The evaluator holds a full stability window, so the verdict could have
  /// been "converged" (sync_evaluator::window_full).
  bool window_full = false;
  std::uint64_t version = 0;  ///< installed snapshot version checked against
};

/// What the install path observed when a new version shipped.
struct install_observation {
  std::uint64_t version = 0;
  std::uint64_t model = 0;
  std::uint32_t logical_model = 0;
  bool initial = false;
  double freeze_seconds = 0.0;
  double quantize_seconds = 0.0;
  double translate_seconds = 0.0;
  double compile_seconds = 0.0;
  double install_seconds = 0.0;
  double switch_wait_seconds = 0.0;
  quant::fidelity_report fidelity{};
  std::uint64_t prev_model = 0;       ///< 0 when there was no active model
  std::uint64_t prev_pinned = 0;      ///< refcount on the demoted snapshot
};

class adaptation_monitor {
 public:
  explicit adaptation_monitor(bool enabled = false);

  adaptation_monitor(const adaptation_monitor&) = delete;
  adaptation_monitor& operator=(const adaptation_monitor&) = delete;

  bool enabled() const noexcept { return enabled_; }

  // ---- hooks (called by instrumented components; all read-only) ----

  /// One §3.3 sync verdict: records the fidelity/spread/staleness time
  /// series and evaluates both rules.
  void on_sync_check(double now, const check_observation& obs);

  /// One slow-path batch delivery.  Cheap staleness pass so stale_snapshot
  /// is still watched when sync checks are rare or the adaptation loop is
  /// disabled outright.
  void on_batch(double now);

  /// A new snapshot version switched active: opens its ledger record and
  /// closes the demoted predecessor's (retire time + pinned flows).
  void on_snapshot_install(double now, const install_observation& obs);

  /// A snapshot module unloaded (its last flow-cache reference drained).
  void on_snapshot_removed(double now, std::uint64_t model);

  // ---- reporting ----

  const std::vector<snapshot_record>& ledger() const noexcept {
    return ledger_;
  }
  const std::vector<alert_record>& alerts() const noexcept { return alerts_; }
  std::uint64_t alert_count(alert_kind k) const noexcept;
  std::uint64_t total_alerts() const noexcept;
  std::uint64_t checks() const noexcept { return checks_.value(); }

  /// Necessity threshold seen at the most recent check (0 before any).
  double last_threshold() const noexcept { return last_threshold_; }

  const time_series& fidelity_min() const noexcept { return fid_min_; }
  const time_series& fidelity_mean() const noexcept { return fid_mean_; }
  const time_series& fidelity_max() const noexcept { return fid_max_; }
  const time_series& stability_spread() const noexcept { return spread_; }
  const time_series& snapshot_age() const noexcept { return staleness_; }

  /// Publish "<prefix>.alerts.<kind>" counters plus "<prefix>.checks" and
  /// the recorded series under "<prefix>.fidelity.*" etc.
  void register_metrics(metrics::registry& reg, const std::string& prefix);

  /// Attach the alert ring under "<prefix>" (typed `alert` instants:
  /// a = alert_kind, b = value in 1e-9 units).
  void register_trace(trace::collector& col, const std::string& prefix);

 private:
  void raise(double now, alert_kind kind, double value);
  /// stale_snapshot's observation: the installed snapshot's age, or a
  /// clean one while the last verdict did not drift.
  void observe_staleness(double now);
  /// Index of kind `k` in alerts_fired_.
  static std::size_t slot(alert_kind k) noexcept {
    return k == alert_kind::stale_snapshot;
  }

  bool enabled_;
  metrics::alert_rule stuck_;  ///< adaptation_stuck: 1 per stuck check
  metrics::alert_rule stale_;  ///< stale_snapshot: the snapshot's age
  bool last_drifting_ = false;  ///< last verdict said "update necessary"
  double last_install_time_ = -1.0;
  std::uint64_t current_version_ = 0;

  std::vector<snapshot_record> ledger_;
  std::vector<alert_record> alerts_;

  metrics::counter checks_;
  metrics::counter alerts_fired_[2];
  double last_threshold_ = 0.0;

  time_series fid_min_{"fidelity_min_loss"};
  time_series fid_mean_{"fidelity_mean_loss"};
  time_series fid_max_{"fidelity_max_loss"};
  time_series spread_{"stability_spread"};
  time_series staleness_{"snapshot_age"};

  trace::ring trace_{"health"};
};

}  // namespace lf::core
