// Tests for the LiteFlow core library: the NN manager's pin-gated unloads
// and the active/standby inference router with flow cache (§3.4), both
// served by the core module's rt::datapath_engine, the core module APIs
// (§4.2), batched data delivery (§3.2), sync evaluation (§3.3) and the
// end-to-end userspace service pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/batch_collector.hpp"
#include "core/liteflow_core.hpp"
#include "core/sync_evaluator.hpp"
#include "core/userspace_service.hpp"
#include "nn/serialize.hpp"
#include "util/rng.hpp"

namespace {

using namespace lf;
using namespace lf::core;

codegen::snapshot tiny_snapshot(const std::string& name, std::uint64_t version,
                                std::uint64_t seed = 5) {
  rng g{seed};
  const auto net = nn::make_ffnn_flow_size_net(g);
  return codegen::generate_snapshot(net, name, version);
}

struct core_rig {
  explicit core_rig(bool flow_cache = true)
      : core{s, cpu, costs, flow_cache} {}
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  liteflow_core core;

  /// Generations installed and not yet unloaded.
  std::uint64_t loaded() const { return core.engine().versions_live(); }
  /// Run `fn` at simulation time `t`.
  void at(double t, std::function<void()> fn) {
    s.schedule_at(t, std::move(fn));
    s.run();
  }
  /// lf_query_model, with the simulation run until the CPU served it.
  std::vector<fp::s64> query(netsim::flow_id_t flow, std::vector<fp::s64> x) {
    std::vector<fp::s64> out;
    bool served = false;
    core.query_model(flow, std::move(x), [&](std::vector<fp::s64> y) {
      out = std::move(y);
      served = true;
    });
    s.run();
    EXPECT_TRUE(served);
    return out;
  }
};

// ------------------------------------------------------- manager (§4.2) --
// The paper's NN manager: a snapshot stays loaded until no flow and no
// queued query pins it.  The core keeps it as the engine's version pins.

TEST(NnManager, RegisterAndLookup) {
  core_rig rig;
  const auto gen = rig.core.register_model(tiny_snapshot("ffnn", 1));
  EXPECT_EQ(gen, 1u);
  EXPECT_EQ(rig.loaded(), 1u);
  EXPECT_EQ(rig.core.active_snapshot(), nullptr);  // standby until the flip
  rig.core.switch_active();
  ASSERT_NE(rig.core.active_snapshot(), nullptr);
  EXPECT_EQ(rig.core.active_snapshot()->name, "ffnn");
  EXPECT_EQ(rig.core.route(7), gen);
}

TEST(NnManager, DuplicateNameVersionRejected) {
  core_rig rig;
  rig.core.register_model(tiny_snapshot("ffnn", 1));
  EXPECT_THROW(rig.core.register_model(tiny_snapshot("ffnn", 1)),
               std::invalid_argument);
  // Same name, new version is fine.
  EXPECT_NO_THROW(rig.core.register_model(tiny_snapshot("ffnn", 2)));
}

TEST(NnManager, RemoveBlockedByRefcountThenDeferred) {
  core_rig rig;
  rig.core.register_model(tiny_snapshot("ffnn", 1));
  rig.core.switch_active();
  for (netsim::flow_id_t f = 1; f <= 3; ++f) rig.core.route(f);
  rig.core.register_model(tiny_snapshot("ffnn", 2));
  rig.core.switch_active();
  EXPECT_EQ(rig.loaded(), 2u);  // three flows still pin the demoted v1
  rig.core.flow_finished(1);
  rig.core.flow_finished(2);
  EXPECT_EQ(rig.loaded(), 2u);
  rig.core.flow_finished(3);  // last pin drops -> deferred unload fires
  EXPECT_EQ(rig.loaded(), 1u);
  EXPECT_EQ(rig.core.engine().versions_retired(), 1u);
}

TEST(NnManager, RemoveWithoutRefsIsImmediate) {
  core_rig rig;
  rig.core.register_model(tiny_snapshot("ffnn", 1));
  rig.core.switch_active();
  rig.core.register_model(tiny_snapshot("ffnn", 2));
  rig.core.switch_active();  // nothing pins v1: it unloads at the flip
  EXPECT_EQ(rig.loaded(), 1u);
  EXPECT_EQ(rig.core.engine().versions_retired(), 1u);
}

// ---------------------------------------------------------------- router --
// The inference router (§3.4): the active/standby flip plus the flow cache.

TEST(InferenceRouter, InstallThenSwitchActivates) {
  core_rig rig;
  const auto gen = rig.core.register_model(tiny_snapshot("ffnn", 1));
  EXPECT_EQ(rig.core.route(7), 0u);  // a standby serves nothing
  rig.core.switch_active();
  EXPECT_EQ(rig.core.route(7), gen);
  EXPECT_EQ(rig.core.engine().switches(), 1u);
}

TEST(InferenceRouter, SwitchWithoutStandbyIsCountedNoop) {
  core_rig rig;
  // Nothing installed at all: the switch must not publish an empty active.
  EXPECT_DOUBLE_EQ(rig.core.switch_active(), 0.0);
  EXPECT_EQ(rig.core.active_snapshot(), nullptr);
  EXPECT_EQ(rig.core.engine().switches(), 0u);
  EXPECT_EQ(rig.core.engine().switch_noops(), 1u);

  // Active deployed, standby already consumed by a previous switch: a
  // spurious second switch must leave the active snapshot in place.
  const auto v1 = rig.core.register_model(tiny_snapshot("ffnn", 1));
  rig.core.switch_active();
  rig.core.switch_active();  // no standby -> no-op
  EXPECT_EQ(rig.core.route(7), v1);  // datapath still serves
  EXPECT_EQ(rig.core.engine().switches(), 1u);
  EXPECT_EQ(rig.core.engine().switch_noops(), 2u);
}

TEST(InferenceRouter, DoubleSwitchRoundTripRestoresActive) {
  core_rig rig;
  const auto v1 = tiny_snapshot("ffnn", 1, 5);
  rig.core.register_model(v1);
  rig.core.switch_active();

  // Install v2, flip to it, then re-install v1 (unloaded at v2's flip, so
  // its name and version are free again) and flip back: the round trip
  // must serve v1's program again, with every switch counted.
  rig.core.register_model(tiny_snapshot("ffnn", 2, 6));
  rig.core.switch_active();
  EXPECT_EQ(rig.core.active_snapshot()->version, 2u);
  rig.core.register_model(v1);
  rig.core.switch_active();
  EXPECT_EQ(rig.core.active_snapshot()->version, 1u);
  const std::vector<fp::s64> x(v1.input_size(), 300);
  EXPECT_EQ(rig.query(9, x), v1.program.infer(x));
  EXPECT_EQ(rig.core.engine().switches(), 3u);
  EXPECT_EQ(rig.core.engine().switch_noops(), 0u);
  EXPECT_EQ(rig.loaded(), 1u);  // no flow pinned a demoted version
}

TEST(InferenceRouter, FlowCachePinsOldSnapshotAcrossSwitch) {
  // The paper's flow-consistency property: a flow keeps using the snapshot
  // that served its first packet, across update switches, until its FIN.
  core_rig rig;
  const auto v1 = rig.core.register_model(tiny_snapshot("ffnn", 1));
  rig.core.switch_active();
  EXPECT_EQ(rig.core.route(42), v1);  // miss -> pins v1

  const auto v2 = rig.core.register_model(tiny_snapshot("ffnn", 2));
  rig.core.switch_active();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rig.core.route(42), v1);  // cached: still v1
  }
  EXPECT_EQ(rig.core.route(43), v2);  // new flow: v2
  const auto c = rig.core.engine().counters_now();
  EXPECT_EQ(c.l1_hits + c.l2_hits, 100u);
  EXPECT_EQ(c.misses, 2u);

  rig.core.flow_finished(42);
  EXPECT_EQ(rig.core.route(42), v2);  // after its FIN the flow id is new
}

TEST(InferenceRouter, OldModelRemovableOnlyAfterFlowsFinish) {
  core_rig rig;
  rig.core.register_model(tiny_snapshot("ffnn", 1));
  rig.core.switch_active();
  rig.core.route(42);
  rig.core.register_model(tiny_snapshot("ffnn", 2));
  rig.core.switch_active();
  EXPECT_EQ(rig.loaded(), 2u);  // flow 42 pins v1 (deferred unload)
  rig.core.flow_finished(42);   // FIN -> last pin drops -> unloaded
  EXPECT_EQ(rig.loaded(), 1u);
}

TEST(InferenceRouter, DisabledFlowCacheAlwaysUsesActive) {
  // §3.4 fn. 2: a function with the cache off (CC) is always served by the
  // active version, queued queries included.
  core_rig rig{/*flow_cache=*/false};
  const auto v1snap = tiny_snapshot("ffnn", 1, 5);
  const auto v2snap = tiny_snapshot("ffnn", 2, 6);
  const auto v1 = rig.core.register_model(v1snap);
  rig.core.switch_active();
  EXPECT_EQ(rig.core.route(42), v1);
  const auto v2 = rig.core.register_model(v2snap);
  rig.core.switch_active();
  EXPECT_EQ(rig.core.route(42), v2);  // no pinning
  EXPECT_EQ(rig.core.engine().cached_flows(), 0u);

  const std::vector<fp::s64> x(v2snap.input_size(), 300);
  ASSERT_NE(v1snap.program.infer(x), v2snap.program.infer(x));
  std::vector<fp::s64> out;
  rig.core.query_model(42, x, [&](std::vector<fp::s64> o) { out = o; });
  rig.s.run();
  EXPECT_EQ(out, v2snap.program.infer(x));
  EXPECT_EQ(rig.loaded(), 1u);  // nothing kept v1 loaded past its flip
}

TEST(InferenceRouter, IdleEntriesExpire) {
  // The engine sweeps idle entries on the miss path: two buckets per miss
  // against the 30 s idle timeout.
  core_rig rig;
  rig.core.register_model(tiny_snapshot("ffnn", 1));
  rig.core.switch_active();
  rig.core.route(42);
  EXPECT_EQ(rig.core.engine().cached_flows(), 1u);
  // 600 misses at t = 100 sweep all 1024 buckets of the initial table.
  rig.at(100.0, [&]() {
    for (netsim::flow_id_t f = 1000; f < 1600; ++f) rig.core.route(f);
  });
  EXPECT_EQ(rig.core.engine().cached_flows(), 600u);
  EXPECT_EQ(rig.core.engine().cache().stats().evictions, 1u);
}

TEST(InferenceRouter, RouteWithNothingActiveReturnsNullopt) {
  core_rig rig;
  EXPECT_EQ(rig.core.route(1), 0u);
  EXPECT_EQ(rig.core.engine().cached_flows(), 0u);
}

TEST(InferenceRouter, SwitchLockHeldNanoseconds) {
  core_rig rig;
  metrics::registry reg;
  rig.core.register_metrics(reg, "t");
  rig.core.register_model(tiny_snapshot("ffnn", 1));
  rig.core.switch_active();
  EXPECT_EQ(reg.find_counter("t.core.router.lock.acquisitions")->value(), 1u);
  EXPECT_LE(reg.find_gauge("t.core.router.lock.hold_seconds")->value(),
            100e-9);
}

// ------------------------------------------------------ core over engine --

TEST(CoreEngine, RemovedTimeIsLastPinnedFlowsFin) {
  core_rig rig;
  adaptation_monitor mon{true};
  rig.core.register_monitor(mon);
  install_observation v1;
  v1.version = 1;
  v1.initial = true;
  rig.core.register_model(tiny_snapshot("ffnn", 1));
  rig.core.switch_active(&v1);
  rig.core.route(1);
  rig.core.route(2);
  rig.at(1.0, [&]() {
    install_observation v2;
    v2.version = 2;
    rig.core.register_model(tiny_snapshot("ffnn", 2));
    rig.core.switch_active(&v2);
  });
  rig.at(2.0, [&]() { rig.core.flow_finished(1); });
  ASSERT_EQ(mon.ledger().size(), 2u);
  EXPECT_DOUBLE_EQ(mon.ledger()[0].retire_time, 1.0);
  EXPECT_EQ(mon.ledger()[0].pinned_at_retire, 3u);  // ownership + 2 flows
  EXPECT_LT(mon.ledger()[0].removed_time, 0.0);     // flow 2 still pins it
  rig.at(3.5, [&]() { rig.core.flow_finished(2); });
  EXPECT_DOUBLE_EQ(mon.ledger()[0].removed_time, 3.5);
  EXPECT_DOUBLE_EQ(mon.ledger()[0].drain_seconds(), 2.5);
  EXPECT_LT(mon.ledger()[1].removed_time, 0.0);  // v2 is still active
}

TEST(CoreEngine, VersionCountsReachTelemetry) {
  // Every run publishes the engine's live and retired version counts, so a
  // leaked pin shows as a version that stays live after its flows finish.
  core_rig rig;
  metrics::registry reg;
  rig.core.register_metrics(reg, "t");
  const auto gauge = [&](const std::string& name) {
    return reg.find_gauge("t.core.router." + name)->value();
  };
  rig.core.register_model(tiny_snapshot("ffnn", 1));
  rig.core.switch_active();
  rig.core.route(7);
  rig.core.route(7);
  rig.core.register_model(tiny_snapshot("ffnn", 2));
  rig.core.switch_active();
  EXPECT_DOUBLE_EQ(gauge("versions_live"), 2.0);
  EXPECT_DOUBLE_EQ(gauge("versions_retired"), 0.0);
  EXPECT_DOUBLE_EQ(gauge("cache_hits"), 1.0);
  EXPECT_DOUBLE_EQ(gauge("cache_misses"), 1.0);
  rig.core.flow_finished(7);
  EXPECT_DOUBLE_EQ(gauge("versions_live"), 1.0);
  EXPECT_DOUBLE_EQ(gauge("versions_retired"), 1.0);
  EXPECT_DOUBLE_EQ(gauge("cache.evictions"), 1.0);
  EXPECT_DOUBLE_EQ(gauge("cache.occupancy"), 0.0);
  EXPECT_EQ(reg.find_atomic_counter("t.core.router.switches")->value(), 2u);
}

// ------------------------------------------------------------------ core --

TEST(LiteflowCore, QueryRunsActiveSnapshot) {
  core_rig rig;
  rng g{5};
  const auto net = nn::make_ffnn_flow_size_net(g);
  const auto snap = codegen::generate_snapshot(net, "ffnn", 1);
  rig.core.register_model(snap);
  rig.core.switch_active();

  std::vector<fp::s64> input(net.input_size(), 100);
  const auto direct = snap.program.infer(input);
  std::vector<fp::s64> via_query;
  rig.core.query_model(1, input, [&](std::vector<fp::s64> out) {
    via_query = std::move(out);
  });
  rig.s.run();
  EXPECT_EQ(via_query, direct);
  EXPECT_EQ(rig.core.queries(), 1u);
  // CPU was charged for the inference.
  EXPECT_GT(rig.cpu.busy_seconds(kernelsim::task_category::datapath), 0.0);
}

TEST(LiteflowCore, QueryWithoutModelReturnsEmpty) {
  core_rig rig;
  bool called = false;
  rig.core.query_model(1, {1, 2, 3}, [&](std::vector<fp::s64> out) {
    called = true;
    EXPECT_TRUE(out.empty());
  });
  rig.s.run();
  EXPECT_TRUE(called);
}

TEST(LiteflowCore, QueryWrongInputSizeReturnsEmpty) {
  core_rig rig;
  rig.core.register_model(tiny_snapshot("ffnn", 1));
  rig.core.switch_active();
  EXPECT_TRUE(rig.query(1, {1, 2}).empty());
}

TEST(LiteflowCore, RegisterIoValidatesShapes) {
  core_rig rig;
  rig.core.register_model(tiny_snapshot("ffnn", 1));
  rig.core.switch_active();
  // FFNN: 8 inputs, 1 output.
  EXPECT_NO_THROW(rig.core.register_io({"sched", 8, 1}));
  EXPECT_THROW(rig.core.register_io({"bad", 4, 1}), std::invalid_argument);
  EXPECT_THROW(rig.core.register_io({"zero", 0, 1}), std::invalid_argument);
}

TEST(LiteflowCore, RegisterModelValidatesAgainstIoModules) {
  core_rig rig;
  rig.core.register_io({"sched", 8, 1});
  EXPECT_NO_THROW(rig.core.register_model(tiny_snapshot("ffnn", 1)));
  rng g{6};
  const auto aurora = nn::make_aurora_net(g);  // 30 inputs: incompatible
  EXPECT_THROW(
      rig.core.register_model(codegen::generate_snapshot(aurora, "a", 1)),
      std::invalid_argument);
}

TEST(LiteflowCore, UnregisterIo) {
  core_rig rig;
  const auto h = rig.core.register_io({"sched", 8, 1});
  EXPECT_EQ(rig.core.io_module_count(), 1u);
  EXPECT_TRUE(rig.core.unregister_io(h));
  EXPECT_FALSE(rig.core.unregister_io(h));
  EXPECT_EQ(rig.core.io_module_count(), 0u);
}

TEST(LiteflowCore, ActiveIoScale) {
  core_rig rig;
  EXPECT_EQ(rig.core.active_io_scale(), 0);
  rig.core.register_model(tiny_snapshot("ffnn", 1));
  rig.core.switch_active();
  EXPECT_EQ(rig.core.active_io_scale(), 1000);
}

// --------------------------------------------------------------- batches --

TEST(BatchCollector, DeliversOnInterval) {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  kernelsim::crossspace_channel netlink{s, cpu, costs,
                                        kernelsim::channel_kind::netlink};
  batch_collector_config cfg;
  cfg.interval = 0.1;
  batch_collector bc{s, netlink, cfg};
  std::vector<std::size_t> batch_sizes;
  bc.set_consumer([&](std::vector<train_sample> batch) {
    batch_sizes.push_back(batch.size());
  });
  bc.start();
  for (int i = 0; i < 5; ++i) bc.collect({{1.0}, {2.0}, 0.0});
  s.run_until(0.15);
  ASSERT_EQ(batch_sizes.size(), 1u);
  EXPECT_EQ(batch_sizes[0], 5u);
  EXPECT_EQ(bc.samples_delivered(), 5u);
  // Nothing new collected: no extra delivery.
  s.run_until(0.35);
  EXPECT_EQ(batch_sizes.size(), 1u);
}

TEST(BatchCollector, SingleMessagePerBatchNotPerSample) {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  kernelsim::crossspace_channel netlink{s, cpu, costs,
                                        kernelsim::channel_kind::netlink};
  batch_collector bc{s, netlink, {}};
  bc.set_consumer([](std::vector<train_sample>) {});
  bc.start();
  for (int i = 0; i < 100; ++i) bc.collect({{1.0}, {}, 0.0});
  s.run_until(0.15);
  EXPECT_EQ(netlink.one_way_messages(), 1u);  // the whole point of batching
}

TEST(BatchCollector, BufferCapDropsOldest) {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  kernelsim::crossspace_channel netlink{s, cpu, costs,
                                        kernelsim::channel_kind::netlink};
  batch_collector bc{s, netlink, {}};
  std::vector<train_sample> delivered;
  bc.set_consumer(
      [&](std::vector<train_sample> batch) { delivered = std::move(batch); });
  const std::size_t n = k_max_pending_samples + 15;
  for (std::size_t i = 0; i < n; ++i) {
    bc.collect({{static_cast<double>(i)}, {}, 0.0});
  }
  EXPECT_EQ(bc.pending(), k_max_pending_samples);
  EXPECT_EQ(bc.samples_dropped(), 15u);
  bc.start();
  s.run_until(1.0);
  // The 15 oldest went; the batch starts at the 16th sample.
  ASSERT_EQ(delivered.size(), k_max_pending_samples);
  EXPECT_EQ(delivered.front().features[0], 15.0);
  EXPECT_EQ(delivered.back().features[0], static_cast<double>(n - 1));
  EXPECT_EQ(bc.bytes_delivered(), k_max_pending_samples * k_bytes_per_sample);
}

TEST(BatchCollector, RejectsBadInterval) {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  kernelsim::crossspace_channel netlink{s, cpu, costs,
                                        kernelsim::channel_kind::netlink};
  batch_collector_config cfg;
  cfg.interval = 0.0;
  EXPECT_THROW(batch_collector(s, netlink, cfg), std::invalid_argument);
  cfg.interval = -0.1;
  EXPECT_THROW(batch_collector(s, netlink, cfg), std::invalid_argument);
  // NaN fails any comparison, so a naive `interval <= 0` check lets it
  // through and the delivery loop reschedules itself at t = NaN forever.
  cfg.interval = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(batch_collector(s, netlink, cfg), std::invalid_argument);
  cfg.interval = 0.25;
  EXPECT_NO_THROW(batch_collector(s, netlink, cfg));
}

// ---------------------------------------------------------- sync evaluator --

/// Record `n` copies of `v`.
void record_n(sync_evaluator& ev, std::size_t n, double v) {
  for (std::size_t i = 0; i < n; ++i) ev.record_stability(v);
}

TEST(SyncEvaluator, ConvergenceNeedsFullStableWindow) {
  static_assert(k_stability_window == 10 && k_stability_threshold == 0.25);
  sync_evaluator ev{{}};
  EXPECT_FALSE(ev.converged());
  for (const double v : {10.0, 1.0, 5.0, 8.0, 2.0, 9.0, 3.0, 7.0, 4.0, 6.0}) {
    ev.record_stability(v);
  }
  EXPECT_FALSE(ev.converged());  // wild swings
  // Ten samples spread (7.1 - 6.95) / 7.1 = 2%: the swings slid out.
  for (const double v :
       {7.0, 7.1, 7.05, 6.95, 7.0, 7.1, 7.05, 6.95, 7.0, 7.05}) {
    ev.record_stability(v);
  }
  EXPECT_TRUE(ev.converged());
  // One sample at 9.5 brings the spread to (9.5 - 6.95) / 9.5 = 27%.
  ev.record_stability(9.5);
  EXPECT_GT(ev.stability_spread(), k_stability_threshold);
  EXPECT_FALSE(ev.converged());
}

TEST(SyncEvaluator, FullDecisionCombinesBothAxes) {
  rng g{7};
  auto net = nn::make_aurora_net(g);
  const auto installed = quant::quantize(net);
  sync_evaluator ev{{}};
  record_n(ev, k_stability_window - 1, 1.0);
  ev.record_stability(1.01);
  std::vector<std::vector<double>> batch{std::vector<double>(30, 0.1)};

  // Model unchanged: converged but not necessary.
  auto d = ev.evaluate(net, installed, batch);
  EXPECT_TRUE(d.converged);
  EXPECT_FALSE(d.necessary);
  EXPECT_FALSE(d.should_update());

  // Drift the model: now necessary too.
  auto params = net.parameters();
  for (auto& p : params) p += 0.5;
  net.set_parameters(params);
  d = ev.evaluate(net, installed, batch);
  EXPECT_TRUE(d.necessary);
  EXPECT_TRUE(d.should_update());
}

TEST(SyncEvaluator, RejectsBadConfig) {
  sync_config bad;
  bad.output_min = 1.0;
  bad.output_max = 0.0;
  EXPECT_THROW(sync_evaluator{bad}, std::invalid_argument);
  bad.output_max = 1.0;  // Omax == Omin: no output range to scale alpha by
  EXPECT_THROW(sync_evaluator{bad}, std::invalid_argument);
}

TEST(SyncEvaluator, PartialWindowExposesSpreadButNeverConverges) {
  sync_evaluator ev{{}};
  EXPECT_DOUBLE_EQ(ev.stability_spread(), 0.0);  // no samples

  ev.record_stability(5.0);
  EXPECT_DOUBLE_EQ(ev.stability_spread(), 0.0);  // one sample: no spread yet

  record_n(ev, k_stability_window - 2, 5.0);
  EXPECT_DOUBLE_EQ(ev.stability_spread(), 0.0);  // identical values
  // Dead-flat metric, but one sample short of the window — correctness
  // demands the full window before declaring convergence.
  EXPECT_FALSE(ev.converged());

  ev.record_stability(10.0);
  // (10 - 5) / max(|10|, |5|) = 0.5, above the threshold.
  EXPECT_DOUBLE_EQ(ev.stability_spread(), 5.0 / 10.0);
  EXPECT_FALSE(ev.converged());

  // The window slides: a window of flat samples pushes the spike out.
  record_n(ev, k_stability_window, 10.0);
  EXPECT_DOUBLE_EQ(ev.stability_spread(), 0.0);
  EXPECT_TRUE(ev.converged());
}

TEST(SyncEvaluator, ZeroMeanRewardSeriesDoesNotBlowUpSpread) {
  // Regression: rewards oscillating tightly around zero (e.g. a normalized
  // throughput-minus-baseline signal) have a near-zero *mean*, and the old
  // mean-normalized spread divided ~0.02 by ~1e-9 — a spread in the
  // millions that could never converge.  Normalizing by the window's
  // extreme magnitude keeps the spread bounded (<= 2) and scale-free.
  sync_evaluator ev{{}};
  const auto record_wiggle = [&ev](double level) {
    for (std::size_t i = 0; i < k_stability_window; ++i) {
      ev.record_stability(level + (i % 2 == 0 ? 0.01 : -0.01));
    }
  };
  record_wiggle(0.0);
  // (0.01 - (-0.01)) / max(|0.01|, |-0.01|) = 2: the hard upper bound for
  // a sign-straddling window, not a runaway ratio.
  EXPECT_DOUBLE_EQ(ev.stability_spread(), 2.0);
  EXPECT_FALSE(ev.converged());  // still genuinely unstable in relative terms

  // An all-zero window is perfectly stable, not a division blowup.
  record_n(ev, k_stability_window, 0.0);
  EXPECT_DOUBLE_EQ(ev.stability_spread(), 0.0);
  EXPECT_TRUE(ev.converged());

  // Tight oscillation around a nonzero level stays proportional: the same
  // +-0.01 wiggle on a 1.0 baseline is a 2% spread and converges.
  record_wiggle(1.0);
  EXPECT_NEAR(ev.stability_spread(), 0.02 / 1.01, 1e-12);
  EXPECT_TRUE(ev.converged());
}

TEST(SyncEvaluator, NecessityAtExactThresholdIsNotNecessary) {
  // §3.3: sync only when min fidelity loss *exceeds* alpha * (Omax - Omin).
  // Equality means the drift bound is met, not beaten — no update.
  quant::fidelity_report rep;
  rep.samples = 8;  // an empty report is never "necessary"
  rep.min_loss = 0.05 * 2.0;  // alpha=0.05, Omax-Omin=2 -> exactly at bound
  rep.mean_loss = rep.max_loss = rep.min_loss;
  EXPECT_FALSE(quant::update_necessary(rep, 0.05, -1.0, 1.0));
  quant::fidelity_report empty;
  empty.min_loss = 1.0;  // huge drift but zero samples: still no
  EXPECT_FALSE(quant::update_necessary(empty, 0.05, -1.0, 1.0));
  rep.min_loss = std::nextafter(0.1, 1.0);  // one ulp above
  EXPECT_TRUE(quant::update_necessary(rep, 0.05, -1.0, 1.0));
  rep.min_loss = std::nextafter(0.1, 0.0);  // one ulp below
  EXPECT_FALSE(quant::update_necessary(rep, 0.05, -1.0, 1.0));
}

// ------------------------------------------------------ userspace service --

/// Scripted adaptation interface: each adapt() call shifts the model by a
/// controllable amount; stability value is scripted.
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
    ++adapt_calls;
    last_batch_size = batch.size();
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
  int adapt_calls = 0;
  std::size_t last_batch_size = 0;
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

  /// `rounds` batch intervals of 8 samples each; the evaluator sees one
  /// stability sample per batch.
  void feed_rounds(int rounds) {
    for (int round = 0; round < rounds; ++round) {
      feed_samples(8);
      s.run_until(0.1 * (round + 1) + 0.05);
    }
  }
};

/// Batches until the stability window first fills, plus two.
constexpr int k_rounds_past_window = static_cast<int>(k_stability_window) + 2;

TEST(UserspaceService, StartInstallsInitialSnapshot) {
  service_rig rig;
  auto svc = rig.make();
  svc->start();
  rig.s.run_until(0.05);
  EXPECT_NE(rig.core.active_snapshot(), nullptr);
  EXPECT_EQ(svc->current_version(), 1u);
  EXPECT_EQ(rig.core.active_io_scale(), 1000);
}

TEST(UserspaceService, AdaptsOnEveryBatch) {
  service_rig rig;
  auto svc = rig.make();
  svc->start();
  rig.feed_samples(10);
  rig.s.run_until(0.15);
  EXPECT_EQ(rig.adapter.adapt_calls, 1);
  EXPECT_EQ(rig.adapter.last_batch_size, 10u);
  rig.feed_samples(7);
  rig.s.run_until(0.25);
  EXPECT_EQ(rig.adapter.adapt_calls, 2);
}

TEST(UserspaceService, NoUpdateWhileModelUnchanged) {
  service_rig rig;
  auto svc = rig.make();
  svc->start();
  rig.feed_rounds(k_rounds_past_window);
  EXPECT_EQ(svc->snapshot_updates(), 0u);
  EXPECT_GT(svc->skipped_not_necessary(), 0u);
  EXPECT_EQ(svc->current_version(), 1u);
}

TEST(UserspaceService, UpdatesAfterDriftAndConvergence) {
  service_rig rig;
  rig.adapter.drift_per_batch = 0.2;  // model moves away from snapshot
  auto svc = rig.make();
  svc->start();
  rig.feed_rounds(k_rounds_past_window);
  EXPECT_GE(svc->snapshot_updates(), 1u);
  EXPECT_GT(svc->current_version(), 1u);
  // The router's active snapshot got replaced.
  ASSERT_NE(rig.core.active_snapshot(), nullptr);
  EXPECT_GT(rig.core.active_snapshot()->version, 1u);
}

TEST(UserspaceService, UnstableMetricBlocksUpdate) {
  service_rig rig;
  rig.adapter.drift_per_batch = 0.2;
  auto svc = rig.make();
  svc->start();
  for (int round = 0; round < k_rounds_past_window; ++round) {
    // Oscillate the stability metric: exploration has not converged.
    rig.adapter.stability = (round % 2 == 0) ? 1.0 : 10.0;
    rig.feed_samples(8);
    rig.s.run_until(0.1 * (round + 1) + 0.05);
  }
  EXPECT_EQ(svc->snapshot_updates(), 0u);
  EXPECT_GT(svc->skipped_not_converged(), 0u);
}

TEST(UserspaceService, AdaptationDisabledDoesNothing) {
  service_rig rig;
  rig.cfg.adaptation_enabled = false;
  rig.adapter.drift_per_batch = 0.5;
  auto svc = rig.make();
  svc->start();
  rig.feed_rounds(4);
  EXPECT_EQ(rig.adapter.adapt_calls, 0);
  EXPECT_EQ(svc->snapshot_updates(), 0u);
  EXPECT_EQ(svc->current_version(), 1u);
}

}  // namespace
