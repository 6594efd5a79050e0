#include "rt/anomaly_watchdog.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

#include "util/bench_report.hpp"

namespace lf::rt {
namespace {

using metrics::breach_side;
using metrics::rule_baseline;
using metrics::rule_spec;

/// Windows a rule's baseline must absorb before it may breach.  During
/// warmup every window (spike or not) feeds the baseline and nothing
/// fires — a cold start must not alert on its own ramp.
constexpr std::size_t k_warmup = 5;
/// Consecutive breaching windows required to fire (the k in k-of-M).
/// 3 is deliberate: on a loaded single-CPU host, two back-to-back
/// scheduler-stall p999 spikes show up in genuinely clean runs.
constexpr std::size_t k_fire_after = 3;
/// Windows with fewer routes than this are skipped outright (no baseline
/// update, no breach evaluation): idle phases and the short tail window
/// after workers join carry no signal, only noise.
constexpr std::uint64_t k_min_window_routes = 64;

// Envelopes over each rule's baseline (the k_rules table below).  The MAD
// term of the high-side envelopes keeps a noisy-but-legitimate series from
// alerting on its own jitter.
constexpr double k_mad_slack = 8.0;
constexpr double k_p999_spike_factor = 4.0;
constexpr double k_p999_spike_min_ns = 250.0;
constexpr double k_rps_collapse_frac = 0.25;
constexpr double k_l1_collapse_frac = 0.5;
/// l1_collapse only applies when the baseline says the L1 was actually
/// absorbing traffic (an L1-disabled run has nothing to collapse).
constexpr double k_l1_min_baseline = 0.2;
constexpr double k_locks_spike_factor = 8.0;
constexpr double k_locks_spike_min = 0.05;
constexpr double k_shadow_drift_factor = 4.0;
constexpr double k_shadow_drift_min = 1e-3;
/// retired_leak breaches when versions_live exceeds
///   mean * k_retired_leak_factor + k_retired_leak_min.
/// A *level* envelope, deliberately not a growth trend: a switch storm
/// that outruns reclamation does not grow the live count monotonically —
/// reclaim wins individual windows mid-storm — but it does hold the level
/// an order of magnitude above the steady churn baseline (which the EWMA
/// tracks through slow creep without alerting).  The absolute floor keeps
/// small deployments (baseline of a handful of versions) from alerting on
/// trivial counts.  4x (not the p999 rule's tighter envelope): the live
/// count legitimately swings 2-3x while reclamation absorbs a recovery
/// (e.g. a heavy model draining out), and a real reclamation loss sits an
/// order of magnitude up.
constexpr double k_retired_leak_factor = 4.0;
constexpr double k_retired_leak_min = 64.0;
/// Consecutive clean windows required to close a retired_leak breach run
/// (re-arm the trigger and resume folding the baseline).  Every other rule
/// re-arms on a single clean window; here reclamation wins single windows
/// *mid-storm* — the live count whipsaws 3x and back while the leak rages —
/// so one clean window proves nothing.  While a breach run is open, clean
/// windows below this count are a suspicious period: they neither fold into
/// the baseline (a storm-level "dip" of 300 against a baseline of 100 would
/// teach the EWMA that the storm is normal) nor reset the breach count (the
/// k-of-M run survives isolated dips).
constexpr std::size_t k_retired_leak_rearm = 3;
/// A low-side rule's threshold while its baseline says it does not apply.
constexpr double k_never = -std::numeric_limits<double>::infinity();

constexpr rule_spec window_rule(breach_side side,
                                double (*threshold)(const rule_baseline&),
                                std::size_t rearm_after = 1) {
  return {side, threshold, k_warmup, k_fire_after, rearm_after};
}

/// The six rules, in anomaly_kind order.
constexpr rule_spec k_rules[anomaly_kind_count] = {
    // p999_spike
    window_rule(breach_side::above, [](const rule_baseline& b) {
      return std::max(b.mean * k_p999_spike_factor,
                      b.mean + k_mad_slack * b.mad) +
             k_p999_spike_min_ns;
    }),
    // rps_collapse: a baseline without traffic has nothing to collapse.
    window_rule(breach_side::below, [](const rule_baseline& b) {
      return b.mean > 0.0 ? b.mean * k_rps_collapse_frac : k_never;
    }),
    // l1_collapse
    window_rule(breach_side::below, [](const rule_baseline& b) {
      return b.mean >= k_l1_min_baseline ? b.mean * k_l1_collapse_frac
                                         : k_never;
    }),
    // locks_spike
    window_rule(breach_side::above, [](const rule_baseline& b) {
      return std::max({b.mean * k_locks_spike_factor,
                       b.mean + k_mad_slack * b.mad, k_locks_spike_min});
    }),
    // shadow_drift
    window_rule(breach_side::above, [](const rule_baseline& b) {
      return std::max({b.mean * k_shadow_drift_factor,
                       b.mean + k_mad_slack * b.mad, k_shadow_drift_min});
    }),
    // retired_leak.  No MAD term, deliberately.  Mid-storm the live count
    // whipsaws (reclaim wins a window, drops it 3x, loses the next) — if
    // one such dip lands inside the envelope it folds, and a MAD fed a
    // deviation that large inflates the envelope above the storm plateau
    // itself, turning every later storm window "clean".  The live count is
    // low-jitter in steady state, so the pure-factor envelope loses nothing
    // the MAD term was protecting.
    window_rule(
        breach_side::above,
        [](const rule_baseline& b) {
          return b.mean * k_retired_leak_factor + k_retired_leak_min;
        },
        k_retired_leak_rearm),
};

}  // namespace

std::string_view to_string(anomaly_kind k) noexcept {
  switch (k) {
    case anomaly_kind::p999_spike: return "p999_spike";
    case anomaly_kind::rps_collapse: return "rps_collapse";
    case anomaly_kind::l1_collapse: return "l1_collapse";
    case anomaly_kind::locks_spike: return "locks_spike";
    case anomaly_kind::shadow_drift: return "shadow_drift";
    case anomaly_kind::retired_leak: return "retired_leak";
  }
  return "unknown";
}

anomaly_watchdog::anomaly_watchdog(watchdog_config cfg,
                                   datapath_engine* engine)
    : cfg_{std::move(cfg)}, engine_{engine} {
  for (std::size_t k = 0; k < anomaly_kind_count; ++k) {
    rules_[k] = metrics::alert_rule{k_rules[k]};
  }
}

void anomaly_watchdog::observe(const stats_window& w,
                               double max_shadow_divergence) {
  std::lock_guard<std::mutex> g{mu_};
  const auto judge = [&](anomaly_kind k, double v) {
    if (rules_[static_cast<std::size_t>(k)].observe(w.t_s, v)) fire(k, w, v);
  };

  // retired_leak is a control-plane rule, watched on every window (an idle
  // datapath can still leak versions).  The watched series is the *live*
  // version count — the cumulative retired counter grows on every healthy
  // switch — and the signal is its level, not its slope: a storm that
  // outruns reclamation does not grow it monotonically (reclaim wins
  // individual windows mid-storm) but holds it an order of magnitude above
  // the steady churn baseline, which the EWMA tracks through slow creep
  // without alerting.
  judge(anomaly_kind::retired_leak, static_cast<double>(w.versions_live));

  // Traffic rules only see windows with enough routes to mean anything:
  // idle phases and the short tail window after the workers join would
  // otherwise read as throughput collapses.
  if (w.routes < k_min_window_routes) return;

  if (w.samples != 0) judge(anomaly_kind::p999_spike, w.p999_ns);
  judge(anomaly_kind::rps_collapse, w.routes_per_sec);
  judge(anomaly_kind::l1_collapse, w.l1_hit_rate);
  judge(anomaly_kind::locks_spike, w.locks_per_route);
  if (max_shadow_divergence > 0.0) {
    judge(anomaly_kind::shadow_drift, max_shadow_divergence);
  }
}

bool anomaly_watchdog::classifiable(anomaly_kind k) noexcept {
  // The datapath symptoms a freshly admitted bad candidate produces: slower
  // inference (p999), output drift vs. the next standby (shadow), and a
  // throughput collapse from the heavier program.  The control-plane rules
  // (retired_leak) and the cache-shape rules (l1_collapse, locks_spike) say
  // nothing about the candidate itself.
  return k == anomaly_kind::p999_spike || k == anomaly_kind::shadow_drift ||
         k == anomaly_kind::rps_collapse;
}

void anomaly_watchdog::fire(anomaly_kind k, const stats_window& w,
                            double observed) {
  const metrics::alert_rule& rule = rules_[static_cast<std::size_t>(k)];
  incident_record inc;
  inc.seq = incidents_.size() + 1;
  inc.t_s = w.t_s;
  inc.kind = k;
  inc.observed = observed;
  inc.baseline = rule.baseline().mean;
  inc.threshold = rule.threshold();
  inc.breach_run = rule.breach_run();
  inc.first_breach_t_s = rule.first_breach_t();
  inc.window = w;
  if (engine_ != nullptr) {
    const datapath_engine::live_counters c = engine_->counters_now();
    inc.versions_live = c.versions_live;
    inc.versions_retired = c.versions_retired;
    inc.switches = c.switches;
    inc.installs = c.installs;
    inc.gate_blocks = c.gate_blocks;
    if (flight_recorder* rec = engine_->recorder()) {
      // The trigger goes into the control ring BEFORE the rollback and the
      // dump, so the dump reads causally: anomaly, then the
      // snapshot_rollback the policy issued for it.
      emit_now(rec->control(), trace::event_type::anomaly,
               static_cast<std::uint64_t>(k),
               static_cast<std::uint64_t>(std::max(0.0, observed) * 1e3));
    }
    // Cross-rule correlation: a datapath symptom while a switch's probation
    // hold is still open names the admitted candidate as the suspect.
    if (classifiable(k)) {
      for (std::size_t m = 0; m < engine_->model_count(); ++m) {
        const snapshot_handle::probation_status st =
            engine_->probation(static_cast<core::model_key>(m));
        if (!st.open) continue;
        inc.post_switch = true;
        inc.suspect_model = m;
        inc.suspect_gen = st.promoted_gen;
        post_switch_.inc();
        // The rollback policy: detect -> act, still on the sampler thread.
        if (cfg_.auto_rollback &&
            engine_->try_rollback(static_cast<core::model_key>(m))) {
          inc.rollback_gen = st.held_gen;
          rollbacks_issued_.inc();
        }
        break;  // one suspect per incident; N simultaneous holds are a
                // switch storm, not a classifiable regression
      }
    }
    if (flight_recorder* rec = engine_->recorder()) {
      inc.dump_path = rec->try_dump("anomaly");
      dumps_gauge_.set(static_cast<double>(rec->dumps()));
      dumps_suppressed_gauge_.set(
          static_cast<double>(rec->dumps_suppressed()));
    }
  }
  incidents_total_.inc();
  per_kind_[static_cast<std::size_t>(k)].inc();
  std::fprintf(stderr,
               "[watchdog] incident %llu: %s at t=%.3fs observed=%.4g "
               "baseline=%.4g threshold=%.4g (%zu windows)%s%s\n",
               static_cast<unsigned long long>(inc.seq),
               std::string{to_string(k)}.c_str(), inc.t_s, inc.observed,
               inc.baseline, inc.threshold, inc.breach_run,
               inc.dump_path.empty() ? "" : " dump=",
               inc.dump_path.c_str());
  incidents_.push_back(std::move(inc));
  write_incidents_locked();
}

std::vector<incident_record> anomaly_watchdog::incidents() const {
  std::lock_guard<std::mutex> g{mu_};
  return incidents_;
}

std::uint64_t anomaly_watchdog::incident_count() const {
  std::lock_guard<std::mutex> g{mu_};
  return incidents_.size();
}

std::uint64_t anomaly_watchdog::incident_count(anomaly_kind k) const {
  std::lock_guard<std::mutex> g{mu_};
  return per_kind_[static_cast<std::size_t>(k)].value();
}

std::uint64_t anomaly_watchdog::post_switch_incidents() const {
  std::lock_guard<std::mutex> g{mu_};
  return post_switch_.value();
}

std::uint64_t anomaly_watchdog::rollbacks_issued() const {
  std::lock_guard<std::mutex> g{mu_};
  return rollbacks_issued_.value();
}

metrics::rule_baseline anomaly_watchdog::baseline(anomaly_kind k) const {
  std::lock_guard<std::mutex> g{mu_};
  return rules_[static_cast<std::size_t>(k)].baseline();
}

std::uint64_t anomaly_watchdog::dumps() const noexcept {
  if (engine_ == nullptr || engine_->recorder() == nullptr) return 0;
  return engine_->recorder()->dumps();
}

std::uint64_t anomaly_watchdog::dumps_suppressed() const noexcept {
  if (engine_ == nullptr || engine_->recorder() == nullptr) return 0;
  return engine_->recorder()->dumps_suppressed();
}

void anomaly_watchdog::register_metrics(metrics::registry& reg,
                                        const std::string& prefix) {
  reg.register_counter(prefix + ".incidents", incidents_total_);
  for (std::size_t k = 0; k < anomaly_kind_count; ++k) {
    reg.register_counter(
        prefix + "." +
            std::string{to_string(static_cast<anomaly_kind>(k))},
        per_kind_[k]);
  }
  reg.register_gauge(prefix + ".dumps", dumps_gauge_);
  reg.register_gauge(prefix + ".dumps_suppressed", dumps_suppressed_gauge_);
  if (engine_ != nullptr && engine_->config().probation_windows != 0) {
    // The classifier and the rollback policy only exist while probation
    // holds can open; registering their counters conditionally keeps the
    // probation-less clean-run artifacts' key set byte-identical.
    reg.register_counter(prefix + ".post_switch_regressions", post_switch_);
    reg.register_counter(prefix + ".rollbacks_issued", rollbacks_issued_);
  }
}

namespace {

void append_window_json(std::ostringstream& os, const stats_window& w) {
  using bench::json_number;
  os << "{\"t_s\":" << json_number(w.t_s) << ",\"dt_s\":"
     << json_number(w.dt_s) << ",\"routes\":" << w.routes
     << ",\"routes_per_sec\":" << json_number(w.routes_per_sec)
     << ",\"samples\":" << w.samples << ",\"p50_ns\":"
     << json_number(w.p50_ns) << ",\"p99_ns\":" << json_number(w.p99_ns)
     << ",\"p999_ns\":" << json_number(w.p999_ns) << ",\"l1_hit_rate\":"
     << json_number(w.l1_hit_rate) << ",\"locks_per_route\":"
     << json_number(w.locks_per_route) << ",\"versions_live\":"
     << w.versions_live << ",\"versions_retired\":" << w.versions_retired
     << "}";
}

}  // namespace

std::string anomaly_watchdog::write_incidents_locked() const {
  if (cfg_.incident_label.empty() || incidents_.empty()) return {};
  using bench::json_escape;
  using bench::json_number;
  std::ostringstream os;
  os << "{\n  \"label\": \"" << json_escape(cfg_.incident_label)
     << "\",\n  \"incidents\": [";
  for (std::size_t i = 0; i < incidents_.size(); ++i) {
    const incident_record& inc = incidents_[i];
    os << (i ? "," : "") << "\n    {\"seq\":" << inc.seq << ",\"t_s\":"
       << json_number(inc.t_s) << ",\"rule\":\"" << to_string(inc.kind)
       << "\",\"observed\":" << json_number(inc.observed) << ",\"baseline\":"
       << json_number(inc.baseline) << ",\"threshold\":"
       << json_number(inc.threshold) << ",\"breach_windows\":"
       << inc.breach_run << ",\"first_breach_t_s\":"
       << json_number(inc.first_breach_t_s) << ",\"dump\":\""
       << json_escape(inc.dump_path) << "\",\"versions_live\":"
       << inc.versions_live << ",\"versions_retired\":"
       << inc.versions_retired << ",\"switches\":" << inc.switches
       << ",\"installs\":" << inc.installs << ",\"gate_blocks\":"
       << inc.gate_blocks;
    if (inc.post_switch) {
      // Appended only for classified incidents, so the non-probation legs'
      // incident files keep their historical shape byte-for-byte.
      os << ",\"class\":\"post_switch_regression\",\"suspect_model\":"
         << inc.suspect_model << ",\"suspect_gen\":" << inc.suspect_gen
         << ",\"rollback_gen\":" << inc.rollback_gen;
    }
    os << ",\"window\":";
    append_window_json(os, inc.window);
    os << "}";
  }
  os << "\n  ]\n}\n";
  return bench::write_artifact(
      bench::artifact_path("INCIDENT", cfg_.incident_label, ".json"),
      os.str());
}

std::string anomaly_watchdog::write_incidents() const {
  std::lock_guard<std::mutex> g{mu_};
  return write_incidents_locked();
}

namespace {

std::string num4(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

}  // namespace

report::table_data anomaly_watchdog::incidents_table() const {
  std::lock_guard<std::mutex> g{mu_};
  report::table_data t;
  t.id = "incidents";
  t.title = "Watchdog incidents";
  t.caption =
      "Each row is one edge-triggered anomaly: the rule, the observation "
      "that completed the k-of-M breach run, the rolling baseline it was "
      "judged against, and the black-box dump captured at trigger time.";
  t.columns = {"t (s)",     "rule",     "observed", "baseline",
               "threshold", "windows",  "dump"};
  for (const incident_record& inc : incidents_) {
    std::string rule{to_string(inc.kind)};
    if (inc.post_switch) {
      rule += " [post-switch gen " + std::to_string(inc.suspect_gen);
      if (inc.rollback_gen != 0) {
        rule += " → rolled back to gen " + std::to_string(inc.rollback_gen);
      }
      rule += "]";
    }
    t.rows.push_back({num4(inc.t_s), std::move(rule), num4(inc.observed),
                      num4(inc.baseline), num4(inc.threshold),
                      std::to_string(inc.breach_run),
                      inc.dump_path.empty() ? "(suppressed)"
                                            : inc.dump_path});
    t.row_classes.push_back("incident");
  }
  return t;
}

std::vector<report::marker> anomaly_watchdog::incident_markers() const {
  std::lock_guard<std::mutex> g{mu_};
  std::vector<report::marker> out;
  out.reserve(incidents_.size());
  for (const incident_record& inc : incidents_) {
    out.push_back({inc.t_s, std::string{to_string(inc.kind)}, true});
  }
  return out;
}

}  // namespace lf::rt
