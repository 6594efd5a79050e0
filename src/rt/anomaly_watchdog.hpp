// Anomaly watchdog for the rt engine: rolling-baseline detection of
// transient datapath regressions, evaluated entirely on the stats-sampler
// thread.
//
// The failure modes that matter in production are transient — a p999 spike
// during a switch storm, a routes/sec collapse under cache pressure, an L1
// hit-rate cliff after an install flood, shadow-divergence drift after an
// admit, a retired-version leak — and they are invisible in end-of-run
// aggregates.  The watchdog rides the windows the stats sampler already
// folds (no new hot-path instrumentation: workers pay nothing they did not
// already pay for telemetry) and runs one metrics::alert_rule per watched
// series (util/alert_rule.hpp: EWMA mean + MAD baseline, warmup-gated,
// edge-triggered k-of-M, the rule engine the simulated stack's adaptation
// monitor runs too).  The six rules are one spec table in
// anomaly_watchdog.cpp: every rule warms up over 5 windows and fires on 3
// consecutive breaching windows; retired_leak alone needs several
// consecutive clean windows to re-arm, because reclamation wins isolated
// windows mid-storm and those dips must not reset the count or fold into
// the baseline.
//
// On fire the watchdog emits a typed `anomaly` event into the flight
// recorder's control ring, triggers a rate-limited black-box dump
// (BLACKBOX_anomaly_<n>.json via flight_recorder::try_dump), bumps the
// rt.watchdog.* metrics, and appends a structured incident record — rule,
// observed/baseline/threshold, the breaching window, control-plane context
// (live/retired versions, switches, installs, gate blocks), dump path — to
// INCIDENT_<label>.json (rewritten atomically, absent while no incident has
// fired so a clean run leaves no file).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "rt/engine.hpp"
#include "rt/stats_sampler.hpp"
#include "util/alert_rule.hpp"
#include "util/metrics.hpp"
#include "util/run_report.hpp"

namespace lf::rt {

/// What breached.  Order is the trace `anomaly` event's `a` payload and the
/// rt.watchdog.<kind> metric suffix — append-only.
enum class anomaly_kind : std::uint8_t {
  p999_spike = 0,   ///< window p999 above the baseline envelope
  rps_collapse,     ///< routes/sec collapsed below a fraction of baseline
  l1_collapse,      ///< L1 hit rate collapsed below a fraction of baseline
  locks_spike,      ///< locks/route above the baseline envelope
  shadow_drift,     ///< per-model shadow divergence above the envelope
  retired_leak,     ///< live version count far above its rolling baseline
                    ///< (retired snapshots piling up un-reclaimed: the
                    ///< cumulative retired counter grows on every healthy
                    ///< switch, but the *live* count stays near the steady
                    ///< churn level unless reclamation is losing to the
                    ///< switch rate)
};

inline constexpr std::size_t anomaly_kind_count = 6;

std::string_view to_string(anomaly_kind k) noexcept;

struct watchdog_config {
  /// INCIDENT_<label>.json basename; "" disables the incident file.
  std::string incident_label;
  /// Rollback policy: when a firing rule is classified
  /// `post_switch_regression` (see incident_record), invoke
  /// engine::try_rollback on the offending model from the sampler thread.
  /// Off by default — the watchdog stays a pure observer unless the
  /// deployment opted into probation holds.
  bool auto_rollback = false;
};

/// One fired anomaly.
struct incident_record {
  std::uint64_t seq = 0;  ///< 1-based, monotonic per watchdog
  double t_s = 0.0;       ///< breach window end (sampler clock)
  anomaly_kind kind{};
  double observed = 0.0;
  double baseline = 0.0;   ///< baseline mean at trigger time
  double threshold = 0.0;  ///< envelope edge the observation crossed
  std::size_t breach_run = 0;  ///< consecutive breaches at trigger
  double first_breach_t_s = 0.0;
  stats_window window{};   ///< the window that completed the k-of-M run
  std::string dump_path;   ///< BLACKBOX_anomaly_<n>.json ("" if suppressed)
  // Control-plane context at trigger time.
  std::uint64_t versions_live = 0;
  std::uint64_t versions_retired = 0;
  std::uint64_t switches = 0;
  std::uint64_t installs = 0;
  std::uint64_t gate_blocks = 0;
  // Post-switch classifier (cross-rule correlation): a p999_spike /
  // shadow_drift / rps_collapse that fires while a snapshot switch's
  // probation hold is still open is a different incident class than a bare
  // spike — the admitted candidate is the prime suspect.
  bool post_switch = false;        ///< classed post_switch_regression
  std::uint64_t suspect_model = 0;  ///< model whose probation hold was open
  std::uint64_t suspect_gen = 0;    ///< gen the suspect switch installed
  std::uint64_t rollback_gen = 0;   ///< previous gen re-promoted by the
                                    ///< rollback policy (0: policy off or
                                    ///< the rollback lost a race)
};

class anomaly_watchdog {
 public:
  /// `engine` may be null (pure-baseline tests): then no counters context,
  /// no anomaly event, no dump — just incident records.
  explicit anomaly_watchdog(watchdog_config cfg,
                            datapath_engine* engine = nullptr);

  anomaly_watchdog(const anomaly_watchdog&) = delete;
  anomaly_watchdog& operator=(const anomaly_watchdog&) = delete;

  /// Evaluate one folded window (called by stats_sampler::tick on the
  /// sampler thread; any single thread in tests).  `max_shadow_divergence`
  /// is the worst per-model mean divergence with evidence this window
  /// (<= 0 = no evidence, rule skipped).
  void observe(const stats_window& w, double max_shadow_divergence = 0.0);

  std::vector<incident_record> incidents() const;
  std::uint64_t incident_count() const;
  std::uint64_t incident_count(anomaly_kind k) const;
  /// Incidents classified post_switch_regression / rollbacks the policy
  /// actually executed (auto_rollback on, engine rollback succeeded).
  std::uint64_t post_switch_incidents() const;
  std::uint64_t rollbacks_issued() const;
  metrics::rule_baseline baseline(anomaly_kind k) const;

  /// Anomaly dumps written / suppressed by the engine's recorder (0 each
  /// without an engine or recorder).
  std::uint64_t dumps() const noexcept;
  std::uint64_t dumps_suppressed() const noexcept;

  /// Counters under "<prefix>.incidents", "<prefix>.<kind>" and gauges
  /// "<prefix>.dumps" / "<prefix>.dumps_suppressed" (the gauges mirror the
  /// recorder's rate-limiter state at the last fire).
  void register_metrics(metrics::registry& reg, const std::string& prefix);

  /// Rewrite INCIDENT_<label>.json in bench::output_dir() (temp + rename,
  /// same atomicity contract as the Prometheus text).  Returns the path, or
  /// "" when there are no incidents or no label — a clean run never creates
  /// the file, which is exactly what CI's zero-false-positive leg asserts.
  std::string write_incidents() const;

  /// Incidents table for the HTML flight report (empty table when clean).
  report::table_data incidents_table() const;
  /// One alert marker per incident for the telemetry charts.
  std::vector<report::marker> incident_markers() const;

 private:
  /// Record the incident rule `k` just fired on.  Caller holds mu_.
  void fire(anomaly_kind k, const stats_window& w, double observed);
  /// True for the rules the post-switch classifier correlates with an open
  /// probation hold (datapath symptoms a bad candidate produces).
  static bool classifiable(anomaly_kind k) noexcept;
  std::string write_incidents_locked() const;

  watchdog_config cfg_;
  datapath_engine* engine_;

  mutable std::mutex mu_;
  metrics::alert_rule rules_[anomaly_kind_count];
  std::vector<incident_record> incidents_;
  metrics::counter incidents_total_;
  metrics::counter per_kind_[anomaly_kind_count];
  metrics::counter post_switch_;
  metrics::counter rollbacks_issued_;
  metrics::gauge dumps_gauge_;
  metrics::gauge dumps_suppressed_gauge_;
};

}  // namespace lf::rt
