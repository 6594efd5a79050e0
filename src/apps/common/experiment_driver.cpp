#include "apps/common/experiment_driver.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "netsim/workload.hpp"
#include "util/run_report.hpp"
#include "util/stats.hpp"
#include "util/trace_report.hpp"

namespace lf::apps {

report_options report_options::from_env() {
  report_options opts;
  if (const char* v = std::getenv("LF_REPORT")) {
    opts.enabled = std::atoi(v) != 0;
  }
  return opts;
}

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

/// Digest the run into the generic flight_report the renderer consumes.
/// Alert markers go on the goodput chart only (the fidelity chart carries
/// the install markers + threshold line), so the count of marker-alert
/// elements in the document equals the alert total exactly.
report::flight_report build_flight_report(const driver_config& cfg,
                                          const run_result& res,
                                          const core::adaptation_monitor& mon,
                                          const trace::span_stats& spans,
                                          bool tracing) {
  report::flight_report fr;
  fr.title = "LiteFlow flight report: " + cfg.name;

  fr.summary.emplace_back("experiment", cfg.name);
  fr.summary.emplace_back("seed", std::to_string(cfg.seed));
  fr.summary.emplace_back(
      "sim time (s)",
      num(cfg.slice > 0.0 ? cfg.max_sim_time : cfg.duration));
  if (res.mean_goodput > 0.0) {
    fr.summary.emplace_back("mean goodput (Mbps)",
                            num(res.mean_goodput / 1e6));
  }
  if (res.completed > 0) {
    fr.summary.emplace_back("completed flows",
                            std::to_string(res.completed));
  }
  fr.summary.emplace_back("snapshot updates",
                          std::to_string(res.snapshot_updates));
  fr.summary.emplace_back("sync checks", std::to_string(mon.checks()));
  fr.summary.emplace_back("health alerts",
                          std::to_string(mon.total_alerts()));

  // Goodput over time, installs + alerts as vertical markers.
  report::chart_data goodput;
  goodput.id = "goodput";
  goodput.title = "Goodput";
  goodput.y_label = "bps";
  goodput.series.push_back(report::series_data{
      "goodput_bps",
      {res.goodput.points().begin(), res.goodput.points().end()}});
  for (const core::snapshot_record& rec : mon.ledger()) {
    goodput.markers.push_back(report::marker{
        rec.install_time, "install v" + std::to_string(rec.version), false});
  }
  for (const core::alert_record& a : mon.alerts()) {
    goodput.markers.push_back(
        report::marker{a.t, std::string{to_string(a.kind)}, true});
  }
  fr.charts.push_back(std::move(goodput));

  // Fidelity drift vs the §3.3 necessity threshold.
  report::chart_data fidelity;
  fidelity.id = "fidelity";
  fidelity.title = "Fidelity drift (sync checks)";
  fidelity.y_label = "loss";
  for (const time_series* s :
       {&mon.fidelity_min(), &mon.fidelity_mean(), &mon.fidelity_max()}) {
    fidelity.series.push_back(report::series_data{
        s->name(), {s->points().begin(), s->points().end()}});
  }
  if (mon.last_threshold() > 0.0) {
    fidelity.thresholds.push_back(report::threshold_line{
        mon.last_threshold(), "necessity threshold alpha*(Omax-Omin)"});
  }
  for (const core::snapshot_record& rec : mon.ledger()) {
    fidelity.markers.push_back(report::marker{
        rec.install_time, "install v" + std::to_string(rec.version), false});
  }
  fr.charts.push_back(std::move(fidelity));

  // Snapshot lifecycle ledger.  Every installed version gets a row; the
  // §3.3 re-syncs (everything after the v1 bootstrap) carry the
  // lifecycle-update class, so counting those rows reproduces the
  // snapshot_updates telemetry exactly.
  report::table_data lifecycle;
  lifecycle.id = "lifecycle";
  lifecycle.title = "Snapshot lifecycle ledger";
  lifecycle.caption =
      "One row per installed version; the v1 bootstrap deployment is not a "
      "snapshot update, so rows marked as updates match the "
      "snapshot_updates counter.";
  lifecycle.columns = {"version",      "model",        "installed (s)",
                       "freeze (ms)",  "quantize (ms)", "translate (ms)",
                       "compile (ms)", "install (us)",  "switch wait (ns)",
                       "fidelity min", "fidelity mean", "fidelity max",
                       "retired (s)",  "pinned flows",  "drain (s)"};
  for (const core::snapshot_record& rec : mon.ledger()) {
    lifecycle.rows.push_back(
        {std::to_string(rec.version), std::to_string(rec.model),
         num(rec.install_time), num(rec.freeze_seconds * 1e3),
         num(rec.quantize_seconds * 1e3), num(rec.translate_seconds * 1e3),
         num(rec.compile_seconds * 1e3), num(rec.install_seconds * 1e6),
         num(rec.switch_wait_seconds * 1e9), num(rec.fidelity_min),
         num(rec.fidelity_mean), num(rec.fidelity_max),
         rec.retire_time >= 0.0 ? num(rec.retire_time) : "active",
         std::to_string(rec.pinned_at_retire),
         rec.drain_seconds() >= 0.0 ? num(rec.drain_seconds()) : "-"});
    lifecycle.row_classes.push_back(rec.initial ? "" : "lifecycle-update");
  }
  fr.tables.push_back(std::move(lifecycle));

  // Fired alerts.
  report::table_data alerts;
  alerts.id = "alerts";
  alerts.title = "Health alerts";
  alerts.columns = {"t (s)", "kind", "value", "version"};
  for (const core::alert_record& a : mon.alerts()) {
    alerts.rows.push_back({num(a.t), std::string{to_string(a.kind)},
                           num(a.value), std::to_string(a.version)});
    alerts.row_classes.push_back("alert-row");
  }
  fr.tables.push_back(std::move(alerts));

  if (tracing) {
    // Buckets are nanoseconds; the exact means convert to match.
    for (const auto& [name, stat] :
         {std::pair{"inference latency (ns)", &spans.inference_us},
          std::pair{"task latency (ns)", &spans.task_us},
          std::pair{"lock hold (ns)", &spans.lock_hold_ns},
          std::pair{"lock wait (ns)", &spans.lock_wait_ns}}) {
      metrics::latency_snapshot snap;
      stat->ns.snapshot_into(snap);
      fr.histograms.push_back(report::make_histogram_data(
          name, snap, stat->mean.value() * stat->ns_per_unit));
    }
  }
  return fr;
}

}  // namespace

void fct_recorder::record(std::uint64_t flow_bytes, double fct_seconds) {
  switch (netsim::classify_flow(flow_bytes)) {
    case netsim::flow_class::short_flow:
      short_.push_back(fct_seconds);
      break;
    case netsim::flow_class::mid_flow:
      mid_.push_back(fct_seconds);
      break;
    case netsim::flow_class::long_flow:
      long_.push_back(fct_seconds);
      break;
  }
}

void fct_recorder::report(run_result& out) const {
  const auto fill = [](const std::vector<double>& fct_seconds) {
    class_fct_stats s;
    s.count = fct_seconds.size();
    s.mean_seconds = mean_of(fct_seconds);
    s.p99_seconds = percentile(fct_seconds, 99.0);
    return s;
  };
  out.short_flows = fill(short_);
  out.mid_flows = fill(mid_);
  out.long_flows = fill(long_);
  out.completed = completed();
}

run_result run_experiment(experiment& exp) {
  const driver_config& cfg = exp.config();
  sim::simulation simu;
  metrics::registry reg;
  trace::collector tracer{cfg.trace.collector};
  // The flight report renders the monitor's ledger/alerts, so asking for a
  // report implies running the monitor.
  core::adaptation_monitor monitor{cfg.monitor || cfg.report.enabled};
  if (monitor.enabled()) {
    // Register before setup() so the health ring merges with component
    // rings; metrics registration here keeps monitor-off telemetry
    // byte-identical to a run without the monitor compiled in.
    monitor.register_trace(tracer, "health");
    monitor.register_metrics(reg, "health");
  }
  driver_context ctx{simu, reg, tracer, monitor};

  exp.setup(ctx);

  if (cfg.warmup_hook) {
    simu.schedule_at(cfg.warmup, [&]() { exp.at_warmup(ctx); });
  }

  if (cfg.slice > 0.0) {
    // Sliced run: stop as soon as the experiment drains (e.g. every planned
    // flow completed) instead of burning events until max_sim_time.
    for (double t = cfg.slice; t <= cfg.max_sim_time; t += cfg.slice) {
      simu.run_until(t);
      if (exp.finished()) break;
    }
  } else {
    simu.run_until(cfg.duration);
  }

  run_result out;
  out.name = cfg.name;
  out.seed = cfg.seed;
  exp.report(ctx, out);

  // Trace post-processing: fold per-phase span latencies back into the
  // registry *before* the scalar snapshot so they land in telemetry like
  // any other metric, record retained per-type event counts, and export
  // the Perfetto file.
  trace::span_stats span_stats;
  if (tracer.enabled()) {
    trace::derive_span_stats(tracer, span_stats);
    trace::register_span_stats(span_stats, reg, "trace");
    const auto counts = tracer.counts_by_type();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      out.telemetry.emplace(
          "trace.events." +
              std::string{to_string(static_cast<trace::event_type>(i))},
          static_cast<double>(counts[i]));
    }
    if (cfg.trace.write_file) {
      out.trace_path = trace::write_trace(
          tracer, cfg.trace.label.empty() ? cfg.name : cfg.trace.label);
    }
  }

  if (monitor.enabled()) {
    out.lifecycle = monitor.ledger();
    out.alerts = monitor.alerts();
  }

  for (const auto& [name, value] : reg.scalars()) {
    out.telemetry.emplace(name, value);
  }

  if (cfg.report.enabled && cfg.report.write_file) {
    const report::flight_report fr =
        build_flight_report(cfg, out, monitor, span_stats, tracer.enabled());
    out.report_path = report::write_flight_report(
        fr, cfg.report.label.empty() ? cfg.name : cfg.report.label);
  }
  return out;
}

}  // namespace lf::apps
