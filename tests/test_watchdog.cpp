// Tests for the anomaly watchdog (src/rt/anomaly_watchdog) and the
// incident-capture plumbing around it: rolling EWMA+MAD baselines with
// warmup gating, edge-triggered k-of-M firing and re-arm, the rate-gated
// retired-version leak trend, black-box dump correlation (anomaly +
// lifecycle events alongside route summaries), flight-recorder dump rate
// limiting, and the stats sampler's tail-window / atomic-publish contracts
// the watchdog rides on.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "codegen/snapshot.hpp"
#include "nn/mlp.hpp"
#include "rt/anomaly_watchdog.hpp"
#include "rt/engine.hpp"
#include "rt/flight_recorder.hpp"
#include "rt/stats_sampler.hpp"
#include "util/bench_report.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/run_report.hpp"
#include "util/trace.hpp"
#include "util/trace_report.hpp"

namespace {

using namespace lf;
namespace fs = std::filesystem;

codegen::snapshot wd_snapshot(std::uint64_t version, std::uint64_t seed = 9) {
  rng g{seed};
  return codegen::generate_snapshot(nn::make_ffnn_flow_size_net(g), "wd-ffnn",
                                    version);
}

/// A synthetic folded window: healthy defaults, override what the test
/// perturbs.
rt::stats_window mk_window(double t, std::uint64_t routes = 1000,
                           double p999 = 1000.0, double rps = 1e6,
                           double l1 = 0.9, double locks = 0.01,
                           std::uint64_t live = 4) {
  rt::stats_window w;
  w.t_s = t;
  w.dt_s = 0.1;
  w.routes = routes;
  w.routes_per_sec = rps;
  w.samples = routes;
  w.p50_ns = p999 / 4.0;
  w.p99_ns = p999 / 2.0;
  w.p999_ns = p999;
  w.l1_hit_rate = l1;
  w.locks_per_route = locks;
  w.versions_live = live;
  w.versions_retired = live;
  return w;
}

/// The watchdog's spec table: every rule folds 5 warmup windows and fires
/// on the 3rd consecutive breaching window.
constexpr int k_warmup = 5;
constexpr int k_fire = 3;

/// Scoped LF_BENCH_OUT pointing at a fresh temp dir.
struct bench_dir {
  fs::path dir;
  explicit bench_dir(const char* name) {
    dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    ::setenv("LF_BENCH_OUT", dir.string().c_str(), 1);
  }
  ~bench_dir() {
    ::unsetenv("LF_BENCH_OUT");
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

std::string slurp(const std::string& path) {
  std::ifstream is{path};
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Braces/brackets balance and never go negative — no string literal the
/// exporters emit contains either, so this is a real parseability check.
void expect_balanced_json(const std::string& json) {
  long depth = 0, square = 0;
  for (const char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    if (c == '[') ++square;
    if (c == ']') --square;
    ASSERT_GE(depth, 0);
    ASSERT_GE(square, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(square, 0);
}

// ------------------------------------------------------------ baselines --

TEST(RtWatchdog, WarmupAbsorbsSpikesWithoutFiring) {
  rt::anomaly_watchdog wd{{}};
  // Spikes inside the warmup window feed the baseline instead of alerting:
  // a cold start must not page anyone on its own ramp.
  wd.observe(mk_window(0.1));
  wd.observe(mk_window(0.2, 1000, 5e5));
  wd.observe(mk_window(0.3, 1000, 8e5));
  wd.observe(mk_window(0.4));
  wd.observe(mk_window(0.5));
  EXPECT_EQ(wd.incident_count(), 0u);
  EXPECT_EQ(wd.baseline(rt::anomaly_kind::p999_spike).samples, 5u);
}

TEST(RtWatchdog, BaselineConvergesOnSteadySeries) {
  rt::anomaly_watchdog wd{{}};
  for (int i = 0; i < 40; ++i) wd.observe(mk_window(0.1 * (i + 1)));
  const metrics::rule_baseline p999 =
      wd.baseline(rt::anomaly_kind::p999_spike);
  EXPECT_NEAR(p999.mean, 1000.0, 1e-6);
  EXPECT_NEAR(p999.mad, 0.0, 1e-6);
  EXPECT_EQ(p999.samples, 40u);
  EXPECT_NEAR(wd.baseline(rt::anomaly_kind::rps_collapse).mean, 1e6, 1e-3);
  EXPECT_EQ(wd.incident_count(), 0u);
}

TEST(RtWatchdog, EdgeTriggeredKOfMFiresOncePerExcursionAndRearms) {
  rt::anomaly_watchdog wd{{}};  // warmup 5, k = 3
  double t = 0.0;
  const auto clean = [&] { wd.observe(mk_window(t += 0.1)); };
  const auto spike = [&] { wd.observe(mk_window(t += 0.1, 1000, 1e6)); };

  for (int i = 0; i < k_warmup; ++i) clean();
  spike();
  spike();  // two breaching windows are not an incident (k-of-M)
  EXPECT_EQ(wd.incident_count(), 0u);
  clean();  // excursion over: breach run resets
  spike();
  spike();
  EXPECT_EQ(wd.incident_count(), 0u);
  spike();  // third consecutive breach completes the run
  EXPECT_EQ(wd.incident_count(), 1u);
  EXPECT_EQ(wd.incident_count(rt::anomaly_kind::p999_spike), 1u);
  spike();  // still latched: the same excursion must not re-fire
  EXPECT_EQ(wd.incident_count(), 1u);

  const std::vector<rt::incident_record> incs = wd.incidents();
  ASSERT_EQ(incs.size(), 1u);
  EXPECT_EQ(incs[0].seq, 1u);
  EXPECT_EQ(incs[0].kind, rt::anomaly_kind::p999_spike);
  EXPECT_NEAR(incs[0].observed, 1e6, 1e-6);
  EXPECT_EQ(incs[0].breach_run, 3u);
  EXPECT_GT(incs[0].observed, incs[0].threshold);
  // Breaching windows are never folded into the baseline — an anomaly must
  // not teach the detector that anomalous is normal.
  EXPECT_NEAR(incs[0].baseline, 1000.0, 1.0);
  EXPECT_NEAR(wd.baseline(rt::anomaly_kind::p999_spike).mean, 1000.0, 1.0);
  // first_breach_t_s marks the start of the firing excursion, not the
  // isolated spikes before it.
  EXPECT_NEAR(incs[0].first_breach_t_s, incs[0].t_s - 0.2, 1e-9);

  clean();  // recovery re-arms the rule...
  spike();
  spike();
  spike();  // ...so a fresh excursion is a fresh incident
  EXPECT_EQ(wd.incident_count(), 2u);
  EXPECT_EQ(wd.incidents()[1].seq, 2u);
}

TEST(RtWatchdog, ThroughputAndL1CollapseFireBelowTheEnvelope) {
  rt::anomaly_watchdog wd{{}};
  double t = 0.0;
  for (int i = 0; i < k_warmup; ++i) wd.observe(mk_window(t += 0.1));
  // Collapse both series at once: rps to 10% of baseline (frac 0.25),
  // L1 hit rate 0.9 -> 0.1 (frac 0.5).  p999 stays clean.
  for (int i = 0; i < k_fire; ++i) {
    wd.observe(mk_window(t += 0.1, 1000, 1000.0, 1e5, 0.1));
  }
  EXPECT_EQ(wd.incident_count(rt::anomaly_kind::rps_collapse), 1u);
  EXPECT_EQ(wd.incident_count(rt::anomaly_kind::l1_collapse), 1u);
  EXPECT_EQ(wd.incident_count(rt::anomaly_kind::p999_spike), 0u);
}

TEST(RtWatchdog, L1RuleIgnoresAnL1ThatNeverAbsorbedTraffic) {
  rt::anomaly_watchdog wd{{}};  // L1 baseline floor 0.2
  double t = 0.0;
  for (int i = 0; i < 5; ++i) {
    wd.observe(mk_window(t += 0.1, 1000, 1000.0, 1e6, 0.05));
  }
  for (int i = 0; i < 4; ++i) {
    wd.observe(mk_window(t += 0.1, 1000, 1000.0, 1e6, 0.0));
  }
  EXPECT_EQ(wd.incident_count(rt::anomaly_kind::l1_collapse), 0u);
}

TEST(RtWatchdog, LocksSpikeAndShadowDriftRideTheSameMachinery) {
  rt::anomaly_watchdog wd{{}};
  double t = 0.0;
  for (int i = 0; i < k_warmup; ++i) wd.observe(mk_window(t += 0.1), 1e-4);
  for (int i = 0; i < k_fire; ++i) {
    wd.observe(mk_window(t += 0.1, 1000, 1000.0, 1e6, 0.9, 0.5), 0.05);
  }
  EXPECT_EQ(wd.incident_count(rt::anomaly_kind::locks_spike), 1u);
  EXPECT_EQ(wd.incident_count(rt::anomaly_kind::shadow_drift), 1u);
}

TEST(RtWatchdog, LowTrafficWindowsAreSkippedOutright) {
  rt::anomaly_watchdog wd{{}};  // windows under 64 routes skip
  double t = 0.0;
  for (int i = 0; i < k_warmup; ++i) wd.observe(mk_window(t += 0.1));
  const std::size_t warm = wd.baseline(rt::anomaly_kind::p999_spike).samples;
  // Egregious numbers in near-idle windows: no breach, no baseline fold —
  // the tail window after workers join carries noise, not signal.
  for (int i = 0; i < 5; ++i) {
    wd.observe(mk_window(t += 0.1, 10, 1e9, 1.0, 0.0, 10.0));
  }
  EXPECT_EQ(wd.incident_count(), 0u);
  EXPECT_EQ(wd.baseline(rt::anomaly_kind::p999_spike).samples, warm);
}

TEST(RtWatchdog, RetiredLeakWatchesTheLiveLevelNotTheSlope) {
  rt::anomaly_watchdog wd{{}};  // factor 4, absolute floor 64
  double t = 0.0;
  const auto at_live = [&](std::uint64_t live) {
    wd.observe(mk_window(t += 0.1, 1000, 1000.0, 1e6, 0.9, 0.01, live));
  };
  // Steady churn around ~50 live versions, then slow creep: strictly
  // increasing for 30 windows, but the EWMA baseline tracks the creep and
  // the level never clears the envelope.  Must not fire at any run length.
  for (int i = 0; i < 6; ++i) at_live(50);
  for (std::uint64_t i = 0; i < 30; ++i) at_live(50 + 10 * (i + 1));
  EXPECT_EQ(wd.incident_count(rt::anomaly_kind::retired_leak), 0u);

  // Back to steady state (long enough for the baseline to settle back
  // down), then a switch storm outruns reclamation: the level jumps an
  // order of magnitude.  One storm, one incident; a sustained return to
  // baseline re-arms.
  for (int i = 0; i < 12; ++i) at_live(50);
  at_live(1000);
  at_live(1000);
  EXPECT_EQ(wd.incident_count(rt::anomaly_kind::retired_leak), 0u);
  at_live(1000);  // k = 3 consecutive breaches
  EXPECT_EQ(wd.incident_count(rt::anomaly_kind::retired_leak), 1u);
  const rt::incident_record inc = wd.incidents().back();
  EXPECT_EQ(inc.kind, rt::anomaly_kind::retired_leak);
  EXPECT_NEAR(inc.observed, 1000.0, 1e-6);
  EXPECT_GT(inc.observed, inc.threshold);
  at_live(1100);  // latched: the same storm is one incident
  EXPECT_EQ(wd.incident_count(rt::anomaly_kind::retired_leak), 1u);

  // A single reclaim-win dip mid-storm is a suspicious window, not a
  // recovery: it must neither fold into the baseline (it would teach the
  // EWMA that storm-era levels are normal) nor re-arm the trigger.
  const double base_mid = wd.baseline(rt::anomaly_kind::retired_leak).mean;
  at_live(120);   // dip inside the envelope while the run is open
  at_live(1000);  // storm resumes: still the same latched excursion
  EXPECT_EQ(wd.incident_count(rt::anomaly_kind::retired_leak), 1u);
  EXPECT_NEAR(wd.baseline(rt::anomaly_kind::retired_leak).mean, base_mid,
              1e-9);

  // Re-arming takes retired_leak_rearm (3) consecutive clean windows —
  // reclaim has genuinely won — after which a fresh storm is a fresh
  // incident.
  at_live(50);
  at_live(50);
  at_live(50);
  for (int i = 0; i < k_fire; ++i) at_live(1000);
  EXPECT_EQ(wd.incident_count(rt::anomaly_kind::retired_leak), 2u);
}

TEST(RtWatchdog, CleanRunLeavesNoIncidentFile) {
  bench_dir out{"lf_watchdog_clean"};
  rt::anomaly_watchdog wd{{.incident_label = "unitclean"}};
  double t = 0.0;
  for (int i = 0; i < 20; ++i) wd.observe(mk_window(t += 0.1));
  EXPECT_EQ(wd.incident_count(), 0u);
  EXPECT_EQ(wd.write_incidents(), "");
  EXPECT_FALSE(fs::exists(out.dir / "INCIDENT_unitclean.json"));
}

// ----------------------------------------------------- incident capture --

TEST(RtIncidentCapture, FiringDumpsCorrelatedLifecycleAndRouteEvidence) {
  bench_dir out{"lf_watchdog_capture"};

  rt::engine_config cfg;
  cfg.max_workers = 1;
  cfg.telemetry.latency = true;
  cfg.telemetry.blackbox_events = 512;
  rt::datapath_engine e{cfg};
  rt::worker_handle& w = e.register_worker();
  // Slow-path lifecycle into the control ring (what the adaptation
  // monitor's mirror or a harness writer would record), then datapath
  // traffic — the dump must carry both, correlated on one timeline.
  e.record_lifecycle(trace::lifecycle_phase::train, 0, 1, 5'000'000);
  e.install(wd_snapshot(1));
  ASSERT_TRUE(e.switch_active());
  for (int i = 0; i < 32; ++i) e.route(w, 42 + i, i * 0.01, {}, {});

  rt::anomaly_watchdog wd{{.incident_label = "unit"}, &e};
  double t = 0.0;
  for (int i = 0; i < k_warmup; ++i) wd.observe(mk_window(t += 0.1));
  for (int i = 0; i < k_fire; ++i) wd.observe(mk_window(t += 0.1, 1000, 2e6));
  ASSERT_EQ(wd.incident_count(), 1u);

  const rt::incident_record inc = wd.incidents()[0];
  // Control-plane context captured at trigger time.
  EXPECT_EQ(inc.versions_live, 1u);
  EXPECT_GE(inc.installs, 1u);
  EXPECT_GE(inc.switches, 1u);

  // The anomaly dump: monotonic sequence number, and the correlated
  // evidence — the anomaly trigger itself, the slow-path lifecycle stage,
  // the install/switch control events, and the sampled route summaries.
  ASSERT_NE(inc.dump_path.find("BLACKBOX_anomaly_1.json"), std::string::npos);
  const std::string bb = slurp(inc.dump_path);
  ASSERT_FALSE(bb.empty());
  EXPECT_NE(bb.find("\"anomaly\""), std::string::npos);
  EXPECT_NE(bb.find("\"lifecycle_stage\""), std::string::npos);
  EXPECT_NE(bb.find("\"snapshot_install\""), std::string::npos);
  EXPECT_NE(bb.find("\"snapshot_switch\""), std::string::npos);
  EXPECT_NE(bb.find("\"route_summary\""), std::string::npos);
  expect_balanced_json(bb);

  // The incident file: atomic publish (no temp sibling), parseable, and
  // carrying the rule verdict plus the dump pointer.
  const std::string ipath = wd.write_incidents();
  ASSERT_NE(ipath.find("INCIDENT_unit.json"), std::string::npos);
  EXPECT_FALSE(fs::exists(ipath + ".tmp"));
  const std::string ij = slurp(ipath);
  EXPECT_NE(ij.find("\"rule\":\"p999_spike\""), std::string::npos);
  EXPECT_NE(ij.find("BLACKBOX_anomaly_1.json"), std::string::npos);
  EXPECT_NE(ij.find("\"versions_live\""), std::string::npos);
  EXPECT_NE(ij.find("\"window\""), std::string::npos);
  expect_balanced_json(ij);

  // Metrics reflect the fire and the dump.
  metrics::registry reg;
  wd.register_metrics(reg, "rt.watchdog");
  ASSERT_NE(reg.find_gauge("rt.watchdog.dumps"), nullptr);
  EXPECT_EQ(reg.find_gauge("rt.watchdog.dumps")->value(), 1.0);
  EXPECT_EQ(wd.dumps(), 1u);
  EXPECT_EQ(wd.dumps_suppressed(), 0u);

  // The HTML hooks see the same incident.
  EXPECT_EQ(wd.incidents_table().rows.size(), 1u);
  ASSERT_EQ(wd.incident_markers().size(), 1u);
  EXPECT_TRUE(wd.incident_markers()[0].alert);
}

TEST(RtIncidentCapture, FiresWithoutEngineOrRecorderJustWithoutEvidence) {
  // Pure-baseline mode (no engine): incidents still ledger, no dump.
  rt::anomaly_watchdog wd{{}};
  double t = 0.0;
  for (int i = 0; i < k_warmup; ++i) wd.observe(mk_window(t += 0.1));
  for (int i = 0; i < k_fire; ++i) wd.observe(mk_window(t += 0.1, 1000, 1e6));
  ASSERT_EQ(wd.incident_count(), 1u);
  EXPECT_TRUE(wd.incidents()[0].dump_path.empty());
  EXPECT_EQ(wd.dumps(), 0u);

  // Engine without a recorder (blackbox disabled): context, but no dump.
  rt::engine_config cfg;
  cfg.max_workers = 1;
  cfg.telemetry.blackbox_events = 0;
  rt::datapath_engine e{cfg};
  e.install(wd_snapshot(1));
  ASSERT_TRUE(e.switch_active());
  rt::anomaly_watchdog wd2{{}, &e};
  t = 0.0;
  for (int i = 0; i < k_warmup; ++i) wd2.observe(mk_window(t += 0.1));
  for (int i = 0; i < k_fire; ++i) {
    wd2.observe(mk_window(t += 0.1, 1000, 1e6));
  }
  ASSERT_EQ(wd2.incident_count(), 1u);
  EXPECT_TRUE(wd2.incidents()[0].dump_path.empty());
  EXPECT_EQ(wd2.incidents()[0].versions_live, 1u);
}

// ---------------------------------------------------- dump rate limiting --

TEST(RtDumpRateLimit, MinIntervalSuppressesAndCountsDrops) {
  bench_dir out{"lf_dump_ratelimit"};
  rt::telemetry_config rcfg;
  rcfg.blackbox_events = 16;
  rcfg.blackbox_dump_interval_ns = 3'600'000'000'000ull;  // 1h: one admits
  rt::flight_recorder rec{rcfg, 1};
  rt::emit_now(rec.control(), trace::event_type::snapshot_switch, 1, 1);

  const std::string p1 = rec.try_dump("anomaly");
  ASSERT_NE(p1.find("BLACKBOX_anomaly_1.json"), std::string::npos);
  EXPECT_TRUE(fs::exists(p1));
  EXPECT_EQ(rec.try_dump("anomaly"), "");
  EXPECT_EQ(rec.dumps(), 1u);
  EXPECT_EQ(rec.dumps_suppressed(), 1u);
}

TEST(RtDumpRateLimit, LifetimeCapAndMonotonicSequenceNumbers) {
  bench_dir out{"lf_dump_cap"};
  rt::telemetry_config rcfg;
  rcfg.blackbox_events = 16;
  rcfg.blackbox_max_dumps = 2;  // no interval limit: the cap suppresses
  rt::flight_recorder rec{rcfg, 1};
  rt::emit_now(rec.control(), trace::event_type::snapshot_switch, 1, 1);

  const std::string p1 = rec.try_dump("anomaly");
  const std::string p2 = rec.try_dump("anomaly");
  EXPECT_NE(p1.find("BLACKBOX_anomaly_1.json"), std::string::npos);
  EXPECT_NE(p2.find("BLACKBOX_anomaly_2.json"), std::string::npos);
  EXPECT_EQ(rec.try_dump("anomaly"), "");
  EXPECT_EQ(rec.dumps(), 2u);
  EXPECT_EQ(rec.dumps_suppressed(), 1u);
}

TEST(RtDumpRateLimit, ConcurrentTryDumpAdmitsExactlyTheBudget) {
  bench_dir out{"lf_dump_race"};
  rt::telemetry_config rcfg;
  rcfg.blackbox_events = 16;
  rcfg.blackbox_max_dumps = 8;  // no interval limit: the cap is the only gate
  rt::flight_recorder rec{rcfg, 1};
  rt::emit_now(rec.control(), trace::event_type::snapshot_switch, 1, 1);

  // Two threads hammer try_dump concurrently.  Admission is serialized
  // under the dump mutex, so exactly max_dumps attempts may win, every
  // winner gets its own monotonic sequence number (distinct file), and
  // written + suppressed must reconcile with the attempt count — a lost
  // update in the budget check would break one of those.
  constexpr int kThreads = 2;
  constexpr int kAttempts = 64;
  std::vector<std::string> won[kThreads];
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&rec, &won, i] {
      for (int a = 0; a < kAttempts; ++a) {
        const std::string p = rec.try_dump("race");
        if (!p.empty()) won[i].push_back(p);
      }
    });
  }
  for (auto& t : threads) t.join();

  std::vector<std::string> all;
  for (const auto& v : won) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all.size(), 8u);
  EXPECT_EQ(std::unique(all.begin(), all.end()), all.end());  // no dup seqs
  for (const std::string& p : all) EXPECT_TRUE(fs::exists(p));
  EXPECT_EQ(rec.dumps(), 8u);
  EXPECT_EQ(rec.dumps_suppressed(),
            static_cast<std::uint64_t>(kThreads * kAttempts) - 8u);
}

// ------------------------------------------------------- rollback policy --

TEST(RtRollbackPolicy, IncidentInsideProbationClassifiesAndRollsBack) {
  bench_dir out{"lf_rollback_policy"};
  rt::engine_config cfg;
  cfg.max_workers = 1;
  cfg.probation_windows = 50;
  rt::datapath_engine e{cfg};
  rt::worker_handle& w = e.register_worker();
  e.install(wd_snapshot(1));
  ASSERT_TRUE(e.switch_active());
  e.install(wd_snapshot(2, 11));
  ASSERT_TRUE(e.switch_active());  // opens the hold: gen 1 re-promotable
  ASSERT_TRUE(e.probation(core::k_default_model).open);

  rt::anomaly_watchdog wd{{.incident_label = "rbunit"}, &e};
  double t = 0.0;
  for (int i = 0; i < k_warmup; ++i) wd.observe(mk_window(t += 0.1));
  for (int i = 0; i < k_fire; ++i) wd.observe(mk_window(t += 0.1, 1000, 2e6));
  ASSERT_EQ(wd.incident_count(), 1u);

  // The p999 spike inside the probation window names the promoted gen as
  // the suspect and the policy re-promotes the held previous active.
  const rt::incident_record inc = wd.incidents()[0];
  EXPECT_TRUE(inc.post_switch);
  EXPECT_EQ(inc.suspect_model, 0u);
  EXPECT_EQ(inc.suspect_gen, 2u);
  EXPECT_EQ(inc.rollback_gen, 1u);
  EXPECT_EQ(wd.post_switch_incidents(), 1u);
  EXPECT_EQ(wd.rollbacks_issued(), 1u);
  EXPECT_EQ(e.rollbacks(), 1u);
  EXPECT_FALSE(e.probation(core::k_default_model).open);  // hold consumed
  EXPECT_EQ(e.route(w, 7, 0.0, {}, {}).gen, 1u);  // readers see gen 1 again

  // The incident file carries the classification.
  const std::string ij = slurp(wd.write_incidents());
  EXPECT_NE(ij.find("\"class\":\"post_switch_regression\""),
            std::string::npos);
  EXPECT_NE(ij.find("\"suspect_gen\":2"), std::string::npos);
  EXPECT_NE(ij.find("\"rollback_gen\":1"), std::string::npos);
  expect_balanced_json(ij);

  // A second excursion after re-arm finds no hold: incident, but no class
  // and no second rollback — the policy acts at most once per switch.
  wd.observe(mk_window(t += 0.1));
  for (int i = 0; i < k_fire; ++i) wd.observe(mk_window(t += 0.1, 1000, 2e6));
  ASSERT_EQ(wd.incident_count(), 2u);
  EXPECT_FALSE(wd.incidents()[1].post_switch);
  EXPECT_EQ(e.rollbacks(), 1u);
}

TEST(RtRollbackPolicy, ExpiredHoldIsNotClassified) {
  rt::engine_config cfg;
  cfg.max_workers = 1;
  cfg.probation_windows = 2;
  rt::datapath_engine e{cfg};
  e.install(wd_snapshot(1));
  ASSERT_TRUE(e.switch_active());
  e.install(wd_snapshot(2, 11));
  ASSERT_TRUE(e.switch_active());
  // Probation ages out before the anomaly: the switch is no longer suspect.
  EXPECT_EQ(e.probation_tick(), 0u);
  EXPECT_EQ(e.probation_tick(), 1u);

  rt::anomaly_watchdog wd{{}, &e};
  double t = 0.0;
  for (int i = 0; i < k_warmup; ++i) wd.observe(mk_window(t += 0.1));
  for (int i = 0; i < k_fire; ++i) wd.observe(mk_window(t += 0.1, 1000, 2e6));
  ASSERT_EQ(wd.incident_count(), 1u);
  EXPECT_FALSE(wd.incidents()[0].post_switch);
  EXPECT_EQ(e.rollbacks(), 0u);
  EXPECT_EQ(e.rollback_noops(), 0u);  // the policy never even tried
}

TEST(RtRollbackPolicy, ControlPlaneRulesNeverNameASuspect) {
  rt::engine_config cfg;
  cfg.max_workers = 1;
  cfg.probation_windows = 50;
  rt::datapath_engine e{cfg};
  e.install(wd_snapshot(1));
  ASSERT_TRUE(e.switch_active());
  e.install(wd_snapshot(2, 11));
  ASSERT_TRUE(e.switch_active());
  ASSERT_TRUE(e.probation(core::k_default_model).open);

  rt::anomaly_watchdog wd{{}, &e};
  double t = 0.0;
  const auto at_live = [&](std::uint64_t live) {
    wd.observe(mk_window(t += 0.1, 1000, 1000.0, 1e6, 0.9, 0.01, live));
  };
  for (int i = 0; i < 6; ++i) at_live(50);
  // retired_leak fires — a reclamation symptom, not the candidate's: the
  // open hold must stay untouched.
  for (int i = 0; i < k_fire; ++i) at_live(1000);
  ASSERT_EQ(wd.incident_count(rt::anomaly_kind::retired_leak), 1u);
  EXPECT_FALSE(wd.incidents()[0].post_switch);
  EXPECT_EQ(e.rollbacks(), 0u);
  EXPECT_TRUE(e.probation(core::k_default_model).open);
}

TEST(RtRollbackPolicy, ProbationAloneArmsTheRollback) {
  // The same post-switch spike on two engines whose watchdogs are built
  // alike: only the one with probation holds rolls the switch back.
  const auto spike_after_switch = [](std::size_t probation_windows) {
    rt::engine_config cfg;
    cfg.max_workers = 1;
    cfg.probation_windows = probation_windows;
    auto e = std::make_unique<rt::datapath_engine>(cfg);
    e->install(wd_snapshot(1));
    EXPECT_TRUE(e->switch_active());
    e->install(wd_snapshot(2, 11));
    EXPECT_TRUE(e->switch_active());
    rt::anomaly_watchdog wd{{}, e.get()};
    double t = 0.0;
    for (int i = 0; i < k_warmup; ++i) wd.observe(mk_window(t += 0.1));
    for (int i = 0; i < k_fire; ++i) {
      wd.observe(mk_window(t += 0.1, 1000, 2e6));
    }
    EXPECT_EQ(wd.incident_count(), 1u);
    return std::pair{std::move(e), wd.incidents().at(0)};
  };

  const auto [held, held_inc] = spike_after_switch(50);
  EXPECT_TRUE(held_inc.post_switch);
  EXPECT_EQ(held_inc.suspect_gen, 2u);
  EXPECT_EQ(held_inc.rollback_gen, 1u);
  EXPECT_EQ(held->rollbacks(), 1u);
  EXPECT_FALSE(held->probation(core::k_default_model).open);
  rt::worker_handle& hw = held->register_worker();
  EXPECT_EQ(held->route(hw, 7, 0.0, {}, {}).gen, 1u);

  // Without probation no hold opens: the incident names no suspect and
  // the bad generation keeps serving.
  const auto [plain, plain_inc] = spike_after_switch(0);
  EXPECT_FALSE(plain_inc.post_switch);
  EXPECT_EQ(plain_inc.rollback_gen, 0u);
  EXPECT_EQ(plain->rollbacks(), 0u);
  EXPECT_EQ(plain->rollback_noops(), 0u);
  rt::worker_handle& pw = plain->register_worker();
  EXPECT_EQ(plain->route(pw, 7, 0.0, {}, {}).gen, 2u);
}

TEST(RtRollbackPolicy, RollbackCountersRegisterOnlyWithProbation) {
  // Probation off: the classifier cannot act, so its counters must not
  // appear — the clean-run Prometheus/BENCH key set stays byte-identical.
  rt::engine_config cfg;
  cfg.max_workers = 1;
  rt::datapath_engine off{cfg};
  rt::anomaly_watchdog wd_off{{}, &off};
  metrics::registry reg_off;
  wd_off.register_metrics(reg_off, "rt.watchdog");
  EXPECT_EQ(reg_off.find_counter("rt.watchdog.post_switch_regressions"),
            nullptr);
  EXPECT_EQ(reg_off.find_counter("rt.watchdog.rollbacks_issued"), nullptr);

  cfg.probation_windows = 8;
  rt::datapath_engine on{cfg};
  rt::anomaly_watchdog wd_on{{}, &on};
  metrics::registry reg_on;
  wd_on.register_metrics(reg_on, "rt.watchdog");
  EXPECT_NE(reg_on.find_counter("rt.watchdog.post_switch_regressions"),
            nullptr);
  EXPECT_NE(reg_on.find_counter("rt.watchdog.rollbacks_issued"), nullptr);
}

// ------------------------------------------------------- sampler contracts --

TEST(RtStatsSampler, StopStampsTheTailWindowWithTrueDuration) {
  rt::engine_config cfg;
  cfg.max_workers = 1;
  rt::datapath_engine e{cfg};
  rt::worker_handle& w = e.register_worker();
  e.install(wd_snapshot(1));
  ASSERT_TRUE(e.switch_active());

  rt::stats_sampler s{e, {}};
  s.start();
  for (int i = 0; i < 32; ++i) e.route(w, 7 + i, i * 0.001, {}, {});
  // Stop a third of the way into the first interval.  A slow host may
  // still fold a full window first, so the checks read the last one.
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>{
      rt::k_stats_interval_ms / 3});
  s.stop();

  const std::vector<rt::stats_window> ws = s.windows();
  ASSERT_FALSE(ws.empty());
  std::uint64_t routes = 0;
  for (const rt::stats_window& win : ws) routes += win.routes;
  EXPECT_EQ(routes, 32u);
  // The tail is stamped with the time since the previous fold, not the
  // nominal interval, so its routes/sec counts only the time it covered.
  const rt::stats_window& tail = ws.back();
  const double prev_t = ws.size() > 1 ? ws[ws.size() - 2].t_s : 0.0;
  EXPECT_GT(tail.dt_s, 0.0);
  EXPECT_NEAR(tail.dt_s, tail.t_s - prev_t, 1e-6);
  EXPECT_NEAR(tail.routes_per_sec * tail.dt_s,
              static_cast<double>(tail.routes), 0.5);
  if (ws.size() == 1) {
    EXPECT_GE(tail.dt_s, rt::k_stats_interval_ms / 3 * 1e-3);
  }

  // A second stop (what the destructor does after an explicit stop) must
  // not append a spurious near-zero-duration window.
  s.stop();
  EXPECT_EQ(s.windows().size(), ws.size());
}

TEST(RtStatsSampler, TextExpositionIsPublishedAtomically) {
  bench_dir out{"lf_sampler_text"};
  rt::engine_config cfg;
  cfg.max_workers = 1;
  rt::datapath_engine e{cfg};
  rt::worker_handle& w = e.register_worker();
  e.install(wd_snapshot(1));
  ASSERT_TRUE(e.switch_active());
  for (int i = 0; i < 16; ++i) e.route(w, 7 + i, i * 0.001, {}, {});

  rt::stats_sampler_config scfg;
  scfg.text_out = (out.dir / "stats.prom").string();
  rt::stats_sampler s{e, scfg};  // not started: the test ticks by hand
  s.tick();
  ASSERT_TRUE(s.write_text());
  // Published via sibling temp + rename: the target exists, the temp is
  // gone, and a concurrent scraper can only ever have seen one or the
  // other complete exposition.
  EXPECT_TRUE(fs::exists(scfg.text_out));
  EXPECT_FALSE(fs::exists(scfg.text_out + ".tmp"));
  const std::string text = slurp(scfg.text_out);
  EXPECT_NE(text.find("lf_rt_routes_total 16"), std::string::npos);
}

// ------------------------------------------------------- artifact writer --

/// `write` targets a path that already exists as a directory, so the final
/// rename fails even for root.  The writer must return "", print one
/// diagnostic naming the target, and leave no temp file behind.
void expect_clean_failure(const fs::path& target,
                          const std::function<std::string()>& write) {
  fs::create_directories(target);
  ::testing::internal::CaptureStderr();
  const std::string path = write();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(path, "") << target;
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  EXPECT_NE(err.find(target.string()), std::string::npos) << err;
  EXPECT_FALSE(fs::exists(target.string() + ".tmp")) << target;
  EXPECT_TRUE(fs::is_directory(target)) << target;
}

TEST(ArtifactWriter, DirectoryTargetFailsCleanlyForEveryWriter) {
  bench_dir out{"lf_artifact_dir_target"};

  bench::report rep{"figdir", "directory target"};
  expect_clean_failure(out.dir / "BENCH_figdir.json",
                       [&] { return rep.write(); });

  trace::collector col;
  expect_clean_failure(out.dir / "TRACE_dir.json",
                       [&] { return trace::write_trace(col, "dir"); });

  rt::telemetry_config rcfg;
  rcfg.blackbox_events = 16;
  rt::flight_recorder rec{rcfg, 1};
  expect_clean_failure(out.dir / "BLACKBOX_dir.json",
                       [&] { return rec.dump("dir"); });

  report::flight_report fr;
  fr.title = "directory target";
  expect_clean_failure(out.dir / "REPORT_dir.html", [&] {
    return report::write_flight_report(fr, "dir");
  });

  // The watchdog also publishes on every fire; swallow that attempt's
  // incident line and diagnostic, then check the explicit write.
  fs::create_directories(out.dir / "INCIDENT_dir.json");
  rt::anomaly_watchdog wd{{.incident_label = "dir"}};
  ::testing::internal::CaptureStderr();
  double t = 0.0;
  for (int i = 0; i < k_warmup; ++i) wd.observe(mk_window(t += 0.1));
  for (int i = 0; i < k_fire; ++i) wd.observe(mk_window(t += 0.1, 1000, 1e6));
  ::testing::internal::GetCapturedStderr();
  ASSERT_EQ(wd.incident_count(), 1u);
  expect_clean_failure(out.dir / "INCIDENT_dir.json",
                       [&] { return wd.write_incidents(); });

  rt::engine_config ecfg;
  ecfg.max_workers = 1;
  rt::datapath_engine e{ecfg};
  rt::stats_sampler_config scfg;
  scfg.text_out = (out.dir / "STATS_dir.prom").string();
  rt::stats_sampler s{e, scfg};
  expect_clean_failure(scfg.text_out, [&] {
    return s.write_text() ? scfg.text_out : std::string{};
  });
  // Let the sampler's final write on destruction succeed quietly.
  fs::remove(scfg.text_out);
}

}  // namespace
