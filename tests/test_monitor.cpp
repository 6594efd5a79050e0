// Adaptation health monitor: its two edge-triggered alert rules (stuck,
// staleness), the snapshot lifecycle ledger close-out,
// metrics and trace attachment, a service-level induced-stuck scenario, and
// an end-to-end flight-report run whose HTML row/marker counts must
// reconcile with the run's telemetry.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/cc/cc_experiment.hpp"
#include "core/adaptation_monitor.hpp"
#include "core/batch_collector.hpp"
#include "core/liteflow_core.hpp"
#include "core/userspace_service.hpp"
#include "kernelsim/cpu.hpp"
#include "nn/mlp.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace {

using namespace lf;
using namespace lf::core;

std::size_t count_occurrences(const std::string& hay, const std::string& pat) {
  std::size_t n = 0;
  for (auto pos = hay.find(pat); pos != std::string::npos;
       pos = hay.find(pat, pos + pat.size())) {
    ++n;
  }
  return n;
}

check_observation stuck_check(std::uint64_t version = 1) {
  check_observation obs;
  obs.decision.necessary = true;
  obs.decision.converged = false;
  obs.window_full = true;
  obs.version = version;
  return obs;
}

// ------------------------------------------------------------ unit rules --

TEST(AdaptationMonitor, DisabledMonitorIgnoresEveryHook) {
  adaptation_monitor mon{};  // enabled defaults to false
  EXPECT_FALSE(mon.enabled());
  for (int i = 0; i < 10; ++i) mon.on_sync_check(1.0 * i, stuck_check());
  mon.on_batch(11.0);
  install_observation inst;
  inst.version = 1;
  inst.model = 7;
  mon.on_snapshot_install(12.0, inst);
  mon.on_snapshot_removed(13.0, 7);
  EXPECT_EQ(mon.checks(), 0u);
  EXPECT_TRUE(mon.ledger().empty());
  EXPECT_TRUE(mon.alerts().empty());
  EXPECT_EQ(mon.total_alerts(), 0u);
}

TEST(AdaptationMonitor, StuckAlertFiresOnceAtThresholdAndRearms) {
  adaptation_monitor mon{true};  // fires on the 5th consecutive stuck check

  // Four stuck checks: below the threshold, nothing fires.
  for (int i = 1; i <= 4; ++i) mon.on_sync_check(0.1 * i, stuck_check());
  EXPECT_EQ(mon.alert_count(alert_kind::adaptation_stuck), 0u);

  // The fifth consecutive stuck check crosses the threshold — exactly one
  // alert, with the consecutive-check count as its value.
  mon.on_sync_check(0.5, stuck_check());
  ASSERT_EQ(mon.alert_count(alert_kind::adaptation_stuck), 1u);
  EXPECT_DOUBLE_EQ(mon.alerts().back().value, 5.0);
  EXPECT_EQ(mon.alerts().back().kind, alert_kind::adaptation_stuck);
  EXPECT_DOUBLE_EQ(mon.alerts().back().t, 0.5);

  // Staying stuck does not re-fire (edge-triggered, not level-triggered).
  mon.on_sync_check(0.6, stuck_check());
  mon.on_sync_check(0.7, stuck_check());
  EXPECT_EQ(mon.alert_count(alert_kind::adaptation_stuck), 1u);

  // A healthy check clears the condition and re-arms the rule...
  check_observation healthy;
  healthy.decision.necessary = false;
  healthy.decision.converged = true;
  healthy.window_full = true;
  mon.on_sync_check(0.8, healthy);
  // ...so a fresh run of stuck checks needs the full N again.
  for (int i = 1; i <= 4; ++i) {
    mon.on_sync_check(0.8 + 0.1 * i, stuck_check());
  }
  EXPECT_EQ(mon.alert_count(alert_kind::adaptation_stuck), 1u);
  mon.on_sync_check(1.3, stuck_check());
  EXPECT_EQ(mon.alert_count(alert_kind::adaptation_stuck), 2u);
  EXPECT_EQ(mon.checks(), 13u);
  EXPECT_EQ(mon.total_alerts(), 2u);
}

TEST(AdaptationMonitor, StuckChecksCountOnceTheStabilityWindowIsFull) {
  adaptation_monitor mon{true};
  // Checks made while the evaluator's window was filling could not have
  // converged: however many, they neither fire nor start the run.
  check_observation filling = stuck_check();
  filling.window_full = false;
  for (int i = 1; i <= 9; ++i) mon.on_sync_check(0.1 * i, filling);
  for (int i = 10; i <= 13; ++i) mon.on_sync_check(0.1 * i, stuck_check());
  EXPECT_EQ(mon.alert_count(alert_kind::adaptation_stuck), 0u);
  mon.on_sync_check(1.4, stuck_check());
  ASSERT_EQ(mon.alert_count(alert_kind::adaptation_stuck), 1u);
  EXPECT_DOUBLE_EQ(mon.alerts().back().value, 5.0);
  EXPECT_EQ(mon.checks(), 14u);
}

TEST(AdaptationMonitor, StaleSnapshotNeedsBothAgeAndDrift) {
  adaptation_monitor mon{true};  // stale past 5 s of age

  // No install yet: age is undefined, the rule stays silent no matter what.
  mon.on_sync_check(100.0, stuck_check());
  EXPECT_EQ(mon.alert_count(alert_kind::stale_snapshot), 0u);

  install_observation inst;
  inst.version = 2;
  inst.model = 5;
  mon.on_snapshot_install(100.0, inst);

  // Old snapshot but the last verdict did not say "update necessary":
  // running old code that still matches is fine, no alert.
  check_observation content;
  content.decision.necessary = false;
  content.decision.converged = true;
  content.version = 2;
  mon.on_batch(110.0);
  EXPECT_EQ(mon.alert_count(alert_kind::stale_snapshot), 0u);

  // A drifting verdict while past the age bound raises it (the install at
  // t=100 reset the drift view, so the verdict must come after).
  mon.on_sync_check(106.0, stuck_check(2));
  ASSERT_EQ(mon.alert_count(alert_kind::stale_snapshot), 1u);
  EXPECT_DOUBLE_EQ(mon.alerts().back().value, 6.0);  // age in seconds
  EXPECT_EQ(mon.alerts().back().version, 2u);

  // Installing a fresh snapshot clears staleness and re-arms.
  inst.version = 3;
  inst.model = 6;
  inst.prev_model = 5;
  mon.on_snapshot_install(107.0, inst);
  mon.on_sync_check(108.0, stuck_check(3));  // young snapshot: quiet
  EXPECT_EQ(mon.alert_count(alert_kind::stale_snapshot), 1u);
  mon.on_sync_check(113.5, stuck_check(3));  // old again + drifting
  EXPECT_EQ(mon.alert_count(alert_kind::stale_snapshot), 2u);
}

TEST(AdaptationMonitor, LedgerClosesRetiredRecordsAndTracksDrain) {
  adaptation_monitor mon{true};

  install_observation v1;
  v1.version = 1;
  v1.model = 10;
  v1.initial = true;
  v1.install_seconds = 0.002;
  mon.on_snapshot_install(0.5, v1);

  ASSERT_EQ(mon.ledger().size(), 1u);
  EXPECT_TRUE(mon.ledger()[0].initial);
  EXPECT_LT(mon.ledger()[0].retire_time, 0.0);
  EXPECT_LT(mon.ledger()[0].drain_seconds(), 0.0);  // still active

  install_observation v2;
  v2.version = 2;
  v2.model = 20;
  v2.fidelity.min_loss = 0.3;
  v2.fidelity.mean_loss = 0.4;
  v2.fidelity.max_loss = 0.5;
  v2.prev_model = 10;
  v2.prev_pinned = 5;  // five flows still pinned to the demoted snapshot
  mon.on_snapshot_install(2.0, v2);

  ASSERT_EQ(mon.ledger().size(), 2u);
  const auto& first = mon.ledger()[0];
  EXPECT_DOUBLE_EQ(first.retire_time, 2.0);
  EXPECT_EQ(first.pinned_at_retire, 5u);
  EXPECT_LT(first.drain_seconds(), 0.0);  // retired but not yet unloaded
  EXPECT_FALSE(mon.ledger()[1].initial);
  EXPECT_DOUBLE_EQ(mon.ledger()[1].fidelity_mean, 0.4);

  // The pinned flows drain and the module unloads: drain time closes.
  mon.on_snapshot_removed(3.5, 10);
  EXPECT_DOUBLE_EQ(mon.ledger()[0].removed_time, 3.5);
  EXPECT_DOUBLE_EQ(mon.ledger()[0].drain_seconds(), 1.5);
  // Removing an unknown model id is a harmless no-op.
  mon.on_snapshot_removed(4.0, 999);
  EXPECT_EQ(mon.ledger().size(), 2u);
}

TEST(AdaptationMonitor, MetricsAndTraceMirrorAlerts) {
  adaptation_monitor mon{true};
  metrics::registry reg;
  mon.register_metrics(reg, "health");
  trace::collector col{trace::collector_config{true, 64}};
  mon.register_trace(col, "health");

  install_observation inst;
  inst.version = 1;
  inst.model = 3;
  mon.on_snapshot_install(0.0, inst);
  for (int i = 1; i <= 5; ++i) mon.on_sync_check(0.1 * i, stuck_check());
  mon.on_batch(6.0);  // still drifting, snapshot 6 s old

  const auto* checks = reg.find_counter("health.checks");
  const auto* stuck = reg.find_counter("health.alerts.adaptation_stuck");
  const auto* stale = reg.find_counter("health.alerts.stale_snapshot");
  ASSERT_NE(checks, nullptr);
  ASSERT_NE(stuck, nullptr);
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(checks->value(), 5u);
  EXPECT_EQ(stuck->value(), 1u);
  EXPECT_EQ(stale->value(), 1u);
  EXPECT_EQ(stuck->value() + stale->value(), mon.total_alerts());

  // Every raise() also emitted a typed trace instant: a = alert kind,
  // b = value in 1e-9 units.
  const auto merged = col.merged();
  std::vector<trace::event> alert_events;
  for (const auto& m : merged) {
    if (m.e.type == trace::event_type::alert) alert_events.push_back(m.e);
  }
  ASSERT_EQ(alert_events.size(), 2u);
  EXPECT_EQ(alert_events[0].a, 0u);  // adaptation_stuck
  EXPECT_EQ(alert_events[0].b, 5000000000u);  // 5 consecutive checks
  EXPECT_EQ(alert_events[1].a, 2u);  // stale_snapshot
  EXPECT_EQ(alert_events[1].b, 6000000000u);  // 6 s old
}

// ----------------------------------------------- service-level scenarios --

/// Scripted adaptation interface (same shape as test_core.cpp): adapt()
/// drifts the model by a controllable amount, stability is scripted.
class stub_adapter final : public adaptation_interface {
 public:
  stub_adapter() {
    rng g{11};
    model_ = std::make_unique<nn::mlp>(nn::make_ffnn_flow_size_net(g));
  }
  std::string freeze_model() override {
    return nn::save_mlp_to_string(*model_);
  }
  double stability_value() const override { return stability; }
  std::vector<double> evaluate(std::span<const double> x) const override {
    return model_->forward(x);
  }
  void adapt(std::span<const core::train_sample> batch) override {
    (void)batch;
    if (drift_per_batch != 0.0) {
      auto p = model_->parameters();
      for (auto& w : p) w += drift_per_batch;
      model_->set_parameters(p);
    }
  }
  std::size_t parameter_count() const override {
    return model_->parameter_count();
  }

  std::unique_ptr<nn::mlp> model_;
  double stability = 1.0;
  double drift_per_batch = 0.0;
};

struct service_rig {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  kernelsim::crossspace_channel netlink{s, cpu, costs,
                                        kernelsim::channel_kind::netlink};
  liteflow_core core{s, cpu, costs};
  batch_collector collector{s, netlink, batch_collector_config{}};
  stub_adapter adapter;
  service_config cfg;

  std::unique_ptr<userspace_service> make() {
    cfg.model_name = "stub";
    cfg.sync.output_min = 0.0;
    cfg.sync.output_max = 1.0;
    return std::make_unique<userspace_service>(s, cpu, costs, netlink, core,
                                               collector, adapter, cfg);
  }

  void feed_samples(int n) {
    for (int i = 0; i < n; ++i) {
      collector.collect({std::vector<double>(8, 0.1), {0.5}, 0.0});
    }
  }
};

TEST(MonitorService, InducedStuckAdaptationRaisesAlert) {
  // The classic failure the watchdog exists for: the model keeps drifting
  // (updates are necessary) while an oscillating stability metric blocks
  // convergence — the sync evaluator correctly refuses to push, and the
  // monitor must flag that the loop is stuck doing so.
  service_rig rig;
  rig.adapter.drift_per_batch = 0.2;
  adaptation_monitor mon{true};
  rig.core.register_monitor(mon);

  auto svc = rig.make();
  svc->register_monitor(mon);
  svc->start();
  // One stability sample per batch: the window fills at round 10, and the
  // rule needs 5 stuck checks from there.
  const int rounds = static_cast<int>(k_stability_window) + 6;
  for (int round = 0; round < rounds; ++round) {
    rig.adapter.stability = (round % 2 == 0) ? 1.0 : 10.0;
    rig.feed_samples(8);
    rig.s.run_until(0.1 * (round + 1) + 0.05);
  }

  EXPECT_EQ(svc->snapshot_updates(), 0u);  // evaluator held the line
  EXPECT_GE(mon.alert_count(alert_kind::adaptation_stuck), 1u);
  // Not before the window was full: counting the checks made while it
  // filled would fire at the 5th, at 0.5 s.
  ASSERT_FALSE(mon.alerts().empty());
  EXPECT_GT(mon.alerts().front().t, 0.1 * k_stability_window);
  // Only the v1 bootstrap ever shipped, and it is still active.
  ASSERT_EQ(mon.ledger().size(), 1u);
  EXPECT_TRUE(mon.ledger()[0].initial);
  EXPECT_LT(mon.ledger()[0].retire_time, 0.0);
  EXPECT_EQ(mon.checks(), static_cast<std::uint64_t>(rounds));
  // The per-check series recorded one point per verdict.
  EXPECT_EQ(mon.stability_spread().points().size(),
            static_cast<std::size_t>(rounds));
}

TEST(MonitorService, HealthyUpdatesPopulateLedgerWithoutAlerts) {
  service_rig rig;
  rig.adapter.drift_per_batch = 0.2;  // steady drift, stable metric
  adaptation_monitor mon{true};
  rig.core.register_monitor(mon);

  auto svc = rig.make();
  svc->register_monitor(mon);
  svc->start();
  // The model drifts from the first batch, so every check until the
  // stability window fills finds it drifted but unconverged; the rule
  // counts none of them.
  for (int round = 0; round < static_cast<int>(k_stability_window) + 6;
       ++round) {
    rig.feed_samples(8);
    rig.s.run_until(0.1 * (round + 1) + 0.05);
  }

  ASSERT_GE(svc->snapshot_updates(), 1u);
  // Ledger = the v1 bootstrap plus one record per re-sync.
  ASSERT_EQ(mon.ledger().size(), 1u + svc->snapshot_updates());
  EXPECT_TRUE(mon.ledger()[0].initial);
  for (std::size_t i = 1; i < mon.ledger().size(); ++i) {
    const auto& rec = mon.ledger()[i];
    EXPECT_FALSE(rec.initial);
    EXPECT_GT(rec.version, mon.ledger()[i - 1].version);
    EXPECT_GT(rec.install_seconds, 0.0);
    // A re-sync ships because fidelity drifted past the threshold.
    EXPECT_GT(rec.fidelity_min, 0.0);
    // Stage-cost estimates are derived from the parameter count and must
    // be populated for every non-initial install.
    EXPECT_GT(rec.freeze_seconds, 0.0);
    EXPECT_GT(rec.compile_seconds, 0.0);
  }
  // Every demoted predecessor got retired; with a single (or zero) flow
  // pinned the drain completes immediately at the switch.
  for (std::size_t i = 0; i + 1 < mon.ledger().size(); ++i) {
    EXPECT_GE(mon.ledger()[i].retire_time, 0.0);
    EXPECT_GE(mon.ledger()[i].removed_time, 0.0);
  }
  // No flow pinned a demoted module, so each unloaded at its switch.
  EXPECT_EQ(rig.core.engine().versions_live(), 1u);
  EXPECT_EQ(mon.alert_count(alert_kind::adaptation_stuck), 0u);
}

// ------------------------------------------------------------ end to end --

TEST(MonitorIntegration, MonitorAttachDoesNotPerturbFixedSeedRun) {
  apps::cc_single_flow_config cfg;
  cfg.scheme = apps::cc_scheme::lf_aurora;
  cfg.duration = 1.0;
  cfg.warmup = 0.2;
  cfg.pretrain_iterations = 60;
  cfg.net.bottleneck_bps = 200e6;
  cfg.seed = 4242;
  cfg.monitor = false;
  const auto off = apps::run_cc_single_flow(cfg);
  cfg.monitor = true;
  const auto on = apps::run_cc_single_flow(cfg);

  // The monitor is strictly read-only: bit-for-bit identical outcomes.
  EXPECT_DOUBLE_EQ(off.mean_goodput, on.mean_goodput);
  EXPECT_DOUBLE_EQ(off.stddev_goodput, on.stddev_goodput);
  EXPECT_EQ(off.completed, on.completed);
  EXPECT_EQ(off.snapshot_updates, on.snapshot_updates);
  EXPECT_TRUE(off.lifecycle.empty());
  EXPECT_EQ(on.lifecycle.size(), 1u + on.snapshot_updates);
}

TEST(MonitorIntegration, FlightReportReconcilesWithTelemetry) {
  const std::string dir = ::testing::TempDir();
  ::setenv("LF_BENCH_OUT", dir.c_str(), 1);

  apps::cc_single_flow_config cfg;
  cfg.scheme = apps::cc_scheme::lf_aurora;
  cfg.duration = 2.0;
  cfg.warmup = 0.5;
  cfg.pretrain_iterations = 100;
  cfg.net.bottleneck_bps = 200e6;
  cfg.seed = 12345;
  apps::trace_options topt;
  topt.collector.enabled = true;
  topt.collector.ring_capacity = 1 << 16;
  topt.label = "monitor_test";
  cfg.trace = topt;
  apps::report_options ropt;
  ropt.enabled = true;  // force-enables the monitor too
  ropt.label = "monitor_test";
  cfg.report = ropt;
  const auto result = apps::run_cc_single_flow(cfg);
  ::unsetenv("LF_BENCH_OUT");

  ASSERT_FALSE(result.report_path.empty());
  ASSERT_TRUE(std::filesystem::exists(result.report_path));
  EXPECT_NE(result.report_path.find("REPORT_monitor_test.html"),
            std::string::npos);

  std::ifstream is{result.report_path};
  std::stringstream buf;
  buf << is.rdbuf();
  const std::string html = buf.str();

  // All six fixed sections are present.
  for (const char* anchor :
       {"<section id=\"summary\">", "<section id=\"goodput\">",
        "<section id=\"fidelity\">", "<section id=\"lifecycle\">",
        "<section id=\"alerts\">", "<section id=\"latency\">"}) {
    EXPECT_NE(html.find(anchor), std::string::npos) << anchor;
  }

  // Lifecycle reconciliation: the ledger carries the v1 bootstrap plus one
  // row per re-sync; only the re-syncs are classed lifecycle-update, so the
  // class count reproduces the snapshot_updates telemetry exactly.
  ASSERT_TRUE(result.telemetry.count("cc.service.snapshot_updates"));
  const auto updates =
      static_cast<std::size_t>(result.telemetry.at("cc.service.snapshot_updates"));
  EXPECT_EQ(result.snapshot_updates, updates);
  EXPECT_EQ(result.lifecycle.size(), updates + 1);
  EXPECT_EQ(count_occurrences(html, "class=\"lifecycle-update\""), updates);

  // Alert reconciliation: one goodput-chart marker and one alerts-table row
  // per fired alert, equal to the health.alerts.* counter total.
  double counter_total = 0.0;
  for (const auto& [name, value] : result.telemetry) {
    if (name.rfind("health.alerts.", 0) == 0) counter_total += value;
  }
  const auto total = static_cast<std::size_t>(counter_total);
  EXPECT_EQ(result.alerts.size(), total);
  EXPECT_EQ(count_occurrences(html, "class=\"marker-alert\""), total);
  EXPECT_EQ(count_occurrences(html, "class=\"alert-row\""), total);

  // The monitor's check counter also landed in telemetry.
  ASSERT_TRUE(result.telemetry.count("health.checks"));
  EXPECT_GT(result.telemetry.at("health.checks"), 0.0);

  std::filesystem::remove(result.report_path);
  if (!result.trace_path.empty()) std::filesystem::remove(result.trace_path);
}

TEST(MonitorIntegration, ReportDisabledLeavesNoArtifacts) {
  apps::cc_single_flow_config cfg;
  cfg.scheme = apps::cc_scheme::cubic;
  cfg.duration = 0.5;
  cfg.warmup = 0.1;
  cfg.seed = 3;
  cfg.monitor = false;
  cfg.report = apps::report_options{};  // disabled
  const auto result = apps::run_cc_single_flow(cfg);
  EXPECT_TRUE(result.report_path.empty());
  EXPECT_TRUE(result.lifecycle.empty());
  EXPECT_TRUE(result.alerts.empty());
  EXPECT_EQ(result.telemetry.count("health.checks"), 0u);
}

}  // namespace
