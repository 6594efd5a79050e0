// Multi-model serving domain tests: the composite flow key and model
// registry, the deterministic shadow sampler/scorer, the multi-model
// inference router and liteflow_core shadow gate, training admission under
// kernelsim CPU saturation (service_mux), and the rt engine's multi-model +
// shadow-gated switching behavior.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "core/adaptation_monitor.hpp"
#include "core/batch_collector.hpp"
#include "core/inference_router.hpp"
#include "core/liteflow_core.hpp"
#include "core/model_domain.hpp"
#include "core/nn_manager.hpp"
#include "core/service_mux.hpp"
#include "core/userspace_service.hpp"
#include "nn/mlp.hpp"
#include "nn/serialize.hpp"
#include "rt/engine.hpp"
#include "util/rng.hpp"

namespace {

using namespace lf;
using namespace lf::core;

codegen::snapshot tiny_snapshot(const std::string& name, std::uint64_t version,
                                std::uint64_t seed = 5) {
  rng g{seed};
  return codegen::generate_snapshot(nn::make_ffnn_flow_size_net(g), name,
                                    version);
}

// ------------------------------------------------------------ ModelDomain --

TEST(ModelDomain, CompositeKeyIsIdentityForDefaultModel) {
  // The load-bearing property: model 0 keys are the raw flow ids, so every
  // single-model hash/shard/fixed-seed output is unchanged by the refactor.
  for (const netsim::flow_id_t f : {0ull, 1ull, 42ull, (1ull << 48) - 1}) {
    EXPECT_EQ(composite_flow_key(k_default_model, f), f);
  }
}

TEST(ModelDomain, CompositeKeySeparatesModels) {
  const netsim::flow_id_t f = 12345;
  const auto k1 = composite_flow_key(1, f);
  const auto k2 = composite_flow_key(2, f);
  EXPECT_NE(k1, f);
  EXPECT_NE(k1, k2);
  // Exact decode under the bit budget.
  EXPECT_EQ(k1 & k_flow_key_mask, f);
  EXPECT_EQ(k1 >> k_flow_key_bits, 1u);
  EXPECT_EQ(k2 >> k_flow_key_bits, 2u);
}

TEST(ModelDomain, RegistryNamesAndPrefixes) {
  model_domain dom;
  EXPECT_EQ(dom.count(), 1u);  // key 0 always exists
  EXPECT_EQ(dom.add("cc-aurora"), 0u);  // first add names the default slot
  EXPECT_EQ(dom.add("sched-ffnn"), 1u);
  EXPECT_EQ(dom.count(), 2u);
  EXPECT_EQ(dom.name_of(0), "cc-aurora");
  EXPECT_EQ(dom.name_of(1), "sched-ffnn");
  ASSERT_TRUE(dom.find("sched-ffnn").has_value());
  EXPECT_EQ(*dom.find("sched-ffnn"), 1u);
  EXPECT_FALSE(dom.find("absent").has_value());
  // Default-model telemetry keys stay byte-identical; extras get a suffix.
  EXPECT_EQ(dom.prefix_of("rt", 0), "rt");
  EXPECT_EQ(dom.prefix_of("rt", 1), "rt.m1-sched-ffnn");
}

// ----------------------------------------------------------- ShadowScorer --

TEST(ShadowScorer, SamplingIsDeterministicAndSeeded) {
  shadow_config cfg;
  cfg.sample_rate = 0.25;
  std::set<netsim::flow_id_t> first, second;
  for (netsim::flow_id_t f = 0; f < 4096; ++f) {
    if (shadow_scorer::sampled(cfg, 1, f)) first.insert(f);
    if (shadow_scorer::sampled(cfg, 1, f)) second.insert(f);
  }
  // Fixed seed => the sampled route set is identical across runs.
  EXPECT_EQ(first, second);
  // And roughly the configured fraction of flows.
  EXPECT_GT(first.size(), 4096 * 0.18);
  EXPECT_LT(first.size(), 4096 * 0.32);
  // A different seed picks a different slice.
  shadow_config other = cfg;
  other.seed ^= 0x1234;
  std::set<netsim::flow_id_t> reseeded;
  for (netsim::flow_id_t f = 0; f < 4096; ++f) {
    if (shadow_scorer::sampled(other, 1, f)) reseeded.insert(f);
  }
  EXPECT_NE(first, reseeded);
  // Models are part of the hash: the same flow lands differently per model.
  std::set<netsim::flow_id_t> model2;
  for (netsim::flow_id_t f = 0; f < 4096; ++f) {
    if (shadow_scorer::sampled(cfg, 2, f)) model2.insert(f);
  }
  EXPECT_NE(first, model2);
}

TEST(ShadowScorer, RateEndpoints) {
  shadow_config cfg;
  cfg.sample_rate = 0.0;
  EXPECT_FALSE(shadow_scorer::sampled(cfg, 0, 7));
  cfg.sample_rate = 1.0;
  EXPECT_TRUE(shadow_scorer::sampled(cfg, 0, 7));
}

TEST(ShadowScorer, GateRequiresEvidenceAndFidelity) {
  shadow_config cfg;
  cfg.sample_rate = 0.5;
  cfg.min_samples = 4;
  cfg.divergence_threshold = 0.05;
  shadow_scorer sc;
  // Unmeasured standby is unproven, not clean.
  EXPECT_FALSE(sc.check(cfg).admit);
  sc.record(0.01);
  sc.record(0.02);
  sc.record(0.01);
  EXPECT_FALSE(sc.check(cfg).admit);  // 3 < min_samples
  sc.record(0.02);
  const shadow_verdict good = sc.check(cfg);
  EXPECT_TRUE(good.admit);
  EXPECT_EQ(good.samples, 4u);
  EXPECT_NEAR(good.mean_divergence, 0.015, 1e-12);
  EXPECT_NEAR(good.max_divergence, 0.02, 1e-12);
  // One divergent burst pushes the mean over the threshold.
  sc.record(1.0);
  EXPECT_FALSE(sc.check(cfg).admit);
  // Gate disabled: the evidence is still reported but never blocks.
  cfg.gate_enabled = false;
  EXPECT_TRUE(sc.check(cfg).admit);
  // Shadowing off entirely: always admit (plain switch semantics).
  cfg.gate_enabled = true;
  cfg.sample_rate = 0.0;
  EXPECT_TRUE(shadow_scorer{}.check(cfg).admit);
  sc.reset();
  EXPECT_EQ(sc.samples(), 0u);
  EXPECT_EQ(sc.mean_divergence(), 0.0);
}

TEST(ShadowScorer, DivergenceNormalizesByScaleAndRejectsShapeMismatch) {
  const std::int64_t a[] = {100, -50};
  const std::int64_t b[] = {200, -100};
  // Same normalized values under each generation's own io_scale.
  EXPECT_DOUBLE_EQ(shadow_divergence(a, 100, b, 200), 0.0);
  const std::int64_t c[] = {200, 100};
  EXPECT_GT(shadow_divergence(a, 100, c, 100), 0.5);
  const std::int64_t short_out[] = {1};
  EXPECT_TRUE(std::isinf(shadow_divergence(a, 100, short_out, 100)));
  EXPECT_TRUE(std::isinf(shadow_divergence(a, 0, b, 200)));
}

// ------------------------------------------------------- MultiModelRouter --

struct router_rig {
  sim::simulation s;
  nn_manager m;
  inference_router r{s, m, router_config{}};
};

TEST(MultiModelRouter, ModelsFlipIndependently) {
  router_rig rig;
  const auto a = rig.m.register_model(tiny_snapshot("a", 1));
  const auto b = rig.m.register_model(tiny_snapshot("b", 1));
  rig.r.install_standby(1, a);
  rig.r.switch_active(1);
  EXPECT_EQ(rig.r.active(1), a);
  EXPECT_FALSE(rig.r.active(0).has_value());  // untouched
  EXPECT_FALSE(rig.r.active(2).has_value());
  rig.r.install_standby(2, b);
  EXPECT_EQ(rig.r.standby(2), b);
  EXPECT_EQ(rig.r.active(1), a);  // installing elsewhere changes nothing
  rig.r.switch_active(2);
  EXPECT_EQ(rig.r.active(2), b);
  // The keyless API is exactly model 0.
  const auto c = rig.m.register_model(tiny_snapshot("c", 1));
  rig.r.install_standby(c);
  rig.r.switch_active();
  EXPECT_EQ(rig.r.active(), rig.r.active(0));
  EXPECT_EQ(rig.r.active(0), c);
}

TEST(MultiModelRouter, SharedCacheBindsPerModelAndFlow) {
  router_rig rig;
  const auto a = rig.m.register_model(tiny_snapshot("a", 1));
  const auto b = rig.m.register_model(tiny_snapshot("b", 1));
  rig.r.install_standby(0, a);
  rig.r.switch_active(0);
  rig.r.install_standby(1, b);
  rig.r.switch_active(1);
  // The same wire flow id routes to each model's own snapshot through the
  // one shared cache.
  EXPECT_EQ(rig.r.route(0, 42), a);
  EXPECT_EQ(rig.r.route(1, 42), b);
  EXPECT_EQ(rig.r.cache_size(), 2u);  // two composite-key entries
  // Stickiness is per (model, flow): a switch on model 1 must not move the
  // resident flow, and model 0's binding is untouched entirely.
  const auto b2 = rig.m.register_model(tiny_snapshot("b", 2));
  rig.r.install_standby(1, b2);
  rig.r.switch_active(1);
  EXPECT_EQ(rig.r.route(1, 42), b);   // resident: pinned generation
  EXPECT_EQ(rig.r.route(1, 43), b2);  // fresh flow: new active
  EXPECT_EQ(rig.r.route(0, 42), a);
  // FIN on (1, 42) releases only that binding.
  rig.r.flow_finished(1, 42);
  EXPECT_EQ(rig.r.route(0, 42), a);
  EXPECT_EQ(rig.r.route(1, 42), b2);
}

// ---------------------------------------------------- LiteflowCoreShadow --

struct core_rig {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  liteflow_core core{s, cpu, costs};

  model_id deploy(model_key m, const std::string& name, std::uint64_t version,
                  std::uint64_t seed) {
    const auto id = core.register_model(tiny_snapshot(name, version, seed));
    core.install_standby(m, id);
    core.switch_active(m);
    return id;
  }
};

TEST(LiteflowCoreShadow, RateZeroMeansZeroShadowWork) {
  core_rig rig;
  rig.deploy(0, "a", 1, 5);
  const auto standby = rig.core.register_model(tiny_snapshot("a", 2, 6));
  rig.core.install_standby(0, standby);
  const std::vector<fp::s64> input(8, 100);
  for (netsim::flow_id_t f = 1; f <= 64; ++f) {
    EXPECT_FALSE(rig.core.query_model_sync(0, f, input).empty());
  }
  // Default config: no sampling hash ever fires, no standby inference runs.
  EXPECT_EQ(rig.core.shadow_inferences(), 0u);
  EXPECT_EQ(rig.core.shadow_evidence(0).samples, 0u);
}

TEST(LiteflowCoreShadow, EvidenceIsDeterministicAcrossRuns) {
  shadow_config sh;
  sh.sample_rate = 0.5;
  const auto run = [&](core_rig& rig) {
    rig.core.set_shadow_config(sh);
    rig.deploy(0, "a", 1, 5);
    const auto standby = rig.core.register_model(tiny_snapshot("a", 2, 99));
    rig.core.install_standby(0, standby);
    const std::vector<fp::s64> input(8, 100);
    std::set<netsim::flow_id_t> sampled;
    for (netsim::flow_id_t f = 1; f <= 128; ++f) {
      const auto before = rig.core.shadow_inferences();
      rig.core.query_model_sync(0, f, input);
      if (rig.core.shadow_inferences() > before) sampled.insert(f);
    }
    return std::pair{sampled, rig.core.shadow_evidence(0)};
  };
  core_rig rig1, rig2;
  const auto [set1, v1] = run(rig1);
  const auto [set2, v2] = run(rig2);
  EXPECT_FALSE(set1.empty());
  EXPECT_EQ(set1, set2);  // identical sampled route set
  EXPECT_EQ(v1.samples, v2.samples);
  EXPECT_DOUBLE_EQ(v1.mean_divergence, v2.mean_divergence);
  EXPECT_DOUBLE_EQ(v1.max_divergence, v2.max_divergence);
}

TEST(LiteflowCoreShadow, GateBlocksDriftThenAdmitsRetrain) {
  core_rig rig;
  core::monitor_config mc;
  mc.enabled = true;
  core::adaptation_monitor mon{mc};
  rig.core.register_monitor(mon);
  shadow_config sh;
  sh.sample_rate = 1.0;
  sh.min_samples = 16;
  rig.core.set_shadow_config(sh);

  // Bootstrap: no incumbent, the gate has no jurisdiction.
  const auto v1 = rig.core.register_model(tiny_snapshot("a", 1, 5));
  rig.core.install_standby(0, v1);
  const gate_result boot = rig.core.switch_active(0);
  EXPECT_TRUE(boot.admitted);
  EXPECT_FALSE(boot.gate_blocked);

  const std::vector<fp::s64> input(8, 100);
  // Drifted candidate: different weights, divergence blows the threshold.
  const auto v2 = rig.core.register_model(tiny_snapshot("a", 2, 1234));
  rig.core.install_standby(0, v2);
  for (netsim::flow_id_t f = 1; f <= 32; ++f) {
    rig.core.query_model_sync(0, f, input);
  }
  const gate_result blocked = rig.core.switch_active(0);
  EXPECT_FALSE(blocked.admitted);
  EXPECT_TRUE(blocked.gate_blocked);
  EXPECT_GT(blocked.verdict.mean_divergence, sh.divergence_threshold);
  EXPECT_EQ(rig.core.router().active(0), v1);  // incumbent kept serving
  EXPECT_EQ(rig.core.gate_blocks(), 1u);

  // Retrained candidate reproduces the active's behavior: divergence 0.
  const auto v3 = rig.core.register_model(tiny_snapshot("a", 3, 5));
  rig.core.install_standby(0, v3);
  for (netsim::flow_id_t f = 100; f <= 131; ++f) {
    rig.core.query_model_sync(0, f, input);
  }
  const gate_result admitted = rig.core.switch_active(0);
  EXPECT_TRUE(admitted.admitted);
  EXPECT_DOUBLE_EQ(admitted.verdict.max_divergence, 0.0);
  EXPECT_EQ(rig.core.router().active(0), v3);

  // Both rulings landed in the monitor's gate ledger, in order.
  ASSERT_EQ(mon.gates().size(), 2u);
  EXPECT_FALSE(mon.gates()[0].admitted);
  EXPECT_TRUE(mon.gates()[1].admitted);
  EXPECT_EQ(mon.gates()[0].logical_model, 0u);
}

TEST(LiteflowCoreShadow, UnprovenStandbyIsBlockedUntilMeasured) {
  core_rig rig;
  shadow_config sh;
  sh.sample_rate = 1.0;
  sh.min_samples = 8;
  rig.core.set_shadow_config(sh);
  rig.deploy(1, "b", 1, 5);
  const auto v2 = rig.core.register_model(tiny_snapshot("b", 2, 5));
  rig.core.install_standby(1, v2);
  // Identical weights — but zero samples means unproven, and unproven is
  // blocked, not admitted.
  const gate_result unproven = rig.core.switch_active(1);
  EXPECT_TRUE(unproven.gate_blocked);
  EXPECT_EQ(unproven.verdict.samples, 0u);
  const std::vector<fp::s64> input(8, 100);
  for (netsim::flow_id_t f = 1; f <= 8; ++f) {
    rig.core.query_model_sync(1, f, input);
  }
  EXPECT_TRUE(rig.core.switch_active(1).admitted);
}

// -------------------------------------------------------------- ServiceMux --

/// Minimal scripted adapter (mirrors test_core's stub, trimmed to what the
/// admission tests need).
class mux_adapter final : public adaptation_interface {
 public:
  mux_adapter() {
    rng g{11};
    model_ = std::make_unique<nn::mlp>(nn::make_ffnn_flow_size_net(g));
  }
  std::string freeze_model() override {
    return nn::save_mlp_to_string(*model_);
  }
  double stability_value() const override { return 1.0; }
  std::vector<double> evaluate(std::span<const double> x) const override {
    return model_->forward(x);
  }
  void adapt(std::span<const core::train_sample> batch) override {
    ++adapt_calls;
    (void)batch;
  }
  std::size_t parameter_count() const override {
    return model_->parameter_count();
  }
  std::unique_ptr<nn::mlp> model_;
  int adapt_calls = 0;
};

struct mux_rig {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  kernelsim::crossspace_channel netlink{s, cpu, costs,
                                        kernelsim::channel_kind::netlink};
  liteflow_core core{s, cpu, costs};
  batch_collector lo_collector{s, netlink, batch_collector_config{}};
  batch_collector hi_collector{s, netlink, batch_collector_config{}};
  mux_adapter lo_adapter, hi_adapter;

  service_config make_cfg(const char* name, model_key m, int priority) {
    service_config cfg;
    cfg.model_name = name;
    cfg.model = m;
    cfg.priority = priority;
    cfg.sync.output_min = 0.0;
    cfg.sync.output_max = 1.0;
    cfg.sync.stability_window = 2;
    return cfg;
  }

  static void feed(batch_collector& c, int n) {
    for (int i = 0; i < n; ++i) {
      c.collect({std::vector<double>(8, 0.1), {0.5}, 0.0});
    }
  }
};

TEST(ServiceMux, SaturationShedsLowPriorityTraining) {
  mux_rig rig;
  userspace_service lo{rig.s,  rig.cpu,          rig.costs,
                       rig.netlink, rig.core,    rig.lo_collector,
                       rig.lo_adapter, rig.make_cfg("lo", 0, 0)};
  userspace_service hi{rig.s,  rig.cpu,          rig.costs,
                       rig.netlink, rig.core,    rig.hi_collector,
                       rig.hi_adapter, rig.make_cfg("hi", 1, 1)};
  service_mux mux{rig.s, rig.cpu, mux_config{}};
  mux.attach(lo);
  mux.attach(hi);
  lo.start();
  hi.start();
  EXPECT_FALSE(mux.saturated());
  // Admission reads the CPU backlog when the delivery softirq *completes*,
  // and delivery rides the same FIFO CPU — so pre-loading the queue would
  // only delay the batches past the saturation.  Instead: a 0.12s task
  // spans the t=0.1 delivery enqueue, and its completion hook queues 10s of
  // work *behind* the already-queued deliveries.  Each on_batch then sees
  // that backlog at admission time.
  rig.cpu.submit(kernelsim::task_category::other, 0.12, [&rig]() {
    rig.cpu.submit(kernelsim::task_category::other, 10.0);
  });
  mux_rig::feed(rig.lo_collector, 10);
  mux_rig::feed(rig.hi_collector, 10);
  rig.s.run_until(0.5);
  // Only the top priority class kept its training budget; lo's batch was
  // shed at admission (load shedding, not queueing).
  EXPECT_EQ(lo.deferred_batches(), 1u);
  EXPECT_EQ(hi.deferred_batches(), 0u);
  EXPECT_GE(mux.deferred(), 1u);
  EXPECT_GE(mux.admitted(), 1u);
  EXPECT_EQ(rig.lo_adapter.adapt_calls, 0);
  // hi's training was admitted but queues behind the saturating work (the
  // CPU is FIFO); once the backlog drains it runs — lo's never does.
  EXPECT_EQ(rig.hi_adapter.adapt_calls, 0);
  rig.s.run_until(25.0);
  EXPECT_EQ(rig.hi_adapter.adapt_calls, 1);
  EXPECT_EQ(rig.lo_adapter.adapt_calls, 0);
}

TEST(ServiceMux, UnsaturatedCpuAdmitsEveryClass) {
  mux_rig rig;
  userspace_service lo{rig.s,  rig.cpu,          rig.costs,
                       rig.netlink, rig.core,    rig.lo_collector,
                       rig.lo_adapter, rig.make_cfg("lo", 0, 0)};
  userspace_service hi{rig.s,  rig.cpu,          rig.costs,
                       rig.netlink, rig.core,    rig.hi_collector,
                       rig.hi_adapter, rig.make_cfg("hi", 1, 1)};
  service_mux mux{rig.s, rig.cpu, mux_config{}};
  mux.attach(lo);
  mux.attach(hi);
  lo.start();
  hi.start();
  mux_rig::feed(rig.lo_collector, 10);
  mux_rig::feed(rig.hi_collector, 10);
  rig.s.run_until(0.3);
  EXPECT_EQ(rig.lo_adapter.adapt_calls, 1);
  EXPECT_EQ(rig.hi_adapter.adapt_calls, 1);
  EXPECT_EQ(lo.deferred_batches(), 0u);
  EXPECT_EQ(mux.deferred(), 0u);
}

TEST(ServiceMux, ServicesRunDistinctModelLifecycles) {
  mux_rig rig;
  userspace_service lo{rig.s,  rig.cpu,          rig.costs,
                       rig.netlink, rig.core,    rig.lo_collector,
                       rig.lo_adapter, rig.make_cfg("lo", 0, 0)};
  userspace_service hi{rig.s,  rig.cpu,          rig.costs,
                       rig.netlink, rig.core,    rig.hi_collector,
                       rig.hi_adapter, rig.make_cfg("hi", 1, 1)};
  lo.start();
  hi.start();
  rig.s.run_until(0.05);
  // Each service bootstraps its own logical model behind the shared core.
  ASSERT_TRUE(rig.core.router().active(0).has_value());
  ASSERT_TRUE(rig.core.router().active(1).has_value());
  EXPECT_NE(*rig.core.router().active(0), *rig.core.router().active(1));
  EXPECT_EQ(rig.core.router().model_count(), 2u);
}

// ------------------------------------------------------------ RtMultiModel --

codegen::snapshot rt_snapshot(std::uint64_t seed, std::uint64_t version) {
  rng g{seed};
  return codegen::generate_snapshot(nn::make_ffnn_flow_size_net(g), "rt",
                                    version);
}

TEST(RtMultiModel, ModelsShareEpochDomainButFlipIndependently) {
  rt::engine_config cfg;
  cfg.models = 3;
  cfg.max_workers = 1;
  rt::datapath_engine engine{cfg};
  EXPECT_EQ(engine.model_count(), 3u);
  engine.install(0, rt_snapshot(1, 1));
  engine.switch_active(0);
  EXPECT_TRUE(engine.has_active(0));
  EXPECT_FALSE(engine.has_active(1));
  EXPECT_FALSE(engine.has_active(2));
  // One shared switch-epoch counter: a flip on any model is visible through
  // every handle (that is what keeps the L1 staleness check one load).
  const std::uint64_t se = engine.snapshots(2).switch_epoch();
  engine.install(1, rt_snapshot(2, 1));
  engine.switch_active(1);
  EXPECT_GT(engine.snapshots(2).switch_epoch(), se);
  EXPECT_EQ(engine.snapshots(0).switch_epoch(),
            engine.snapshots(2).switch_epoch());
}

TEST(RtMultiModel, SameFlowIdBindsPerModel) {
  rt::engine_config cfg;
  cfg.models = 2;
  cfg.max_workers = 1;
  cfg.l1_slots = 64;
  rt::datapath_engine engine{cfg};
  engine.install(0, rt_snapshot(1, 1));
  engine.switch_active(0);
  engine.install(1, rt_snapshot(2, 1));
  engine.switch_active(1);
  rt::worker_handle& w = engine.register_worker();
  std::vector<fp::s64> input(8, 100);
  std::vector<fp::s64> out0(1), out1(1);

  auto r0 = engine.route(w, 0, 42, 0.0, input, out0);
  auto r1 = engine.route(w, 1, 42, 0.0, input, out1);
  EXPECT_TRUE(r0.served);
  EXPECT_TRUE(r1.served);
  EXPECT_FALSE(r0.hit);
  EXPECT_FALSE(r1.hit);  // distinct composite keys: both first-seen
  EXPECT_NE(out0, out1);  // different weights behind the same flow id
  // Second packets hit their own model's binding.
  EXPECT_TRUE(engine.route(w, 0, 42, 0.0, input, out0).hit);
  EXPECT_TRUE(engine.route(w, 1, 42, 0.0, input, out1).hit);
  // A FIN on (0, 42) releases only that model's binding.
  EXPECT_TRUE(engine.flow_finished(w, 0, 42));
  EXPECT_FALSE(engine.route(w, 0, 42, 0.0, input, out0).hit);
  EXPECT_TRUE(engine.route(w, 1, 42, 0.0, input, out1).hit);
}

TEST(RtMultiModel, SharedReclaimAccountsAcrossModels) {
  rt::engine_config cfg;
  cfg.models = 2;
  cfg.max_workers = 1;
  rt::datapath_engine engine{cfg};
  for (core::model_key m = 0; m < 2; ++m) {
    engine.install(m, rt_snapshot(m + 1, 1));
    engine.switch_active(m);
    engine.install(m, rt_snapshot(m + 10, 2));
    engine.switch_active(m);  // demotes each model's v1
  }
  engine.maintain();
  engine.epochs().synchronize();
  engine.maintain();
  EXPECT_EQ(engine.versions_retired(), 2u);  // one per model, one domain
  EXPECT_EQ(engine.versions_live(), 2u);     // the two actives
  EXPECT_EQ(engine.switches(), 4u);
}

// ---------------------------------------------------------------- RtShadow --

TEST(RtShadow, RateZeroRunsNoShadowInference) {
  rt::engine_config cfg;
  cfg.models = 1;
  cfg.max_workers = 1;
  rt::datapath_engine engine{cfg};  // shadow defaults: rate 0
  engine.install(0, rt_snapshot(1, 1));
  engine.switch_active(0);
  engine.install(0, rt_snapshot(2, 2));  // standby present and ignorable
  rt::worker_handle& w = engine.register_worker();
  std::vector<fp::s64> input(8, 100), out(1);
  for (netsim::flow_id_t f = 1; f <= 64; ++f) {
    EXPECT_TRUE(engine.route(w, 0, f, 0.0, input, out).served);
  }
  EXPECT_EQ(engine.shadow_inferences(), 0u);
  EXPECT_EQ(engine.shadow_evidence(0).samples, 0u);
}

TEST(RtShadow, SampledSliceIsDeterministicAcrossRuns) {
  const auto run = [] {
    rt::engine_config cfg;
    cfg.max_workers = 1;
    cfg.shadow.sample_rate = 0.5;
    rt::datapath_engine engine{cfg};
    engine.install(0, rt_snapshot(1, 1));
    engine.switch_active(0);
    engine.install(0, rt_snapshot(99, 2));
    rt::worker_handle& w = engine.register_worker();
    std::vector<fp::s64> input(8, 100), out(1);
    std::set<netsim::flow_id_t> sampled;
    for (netsim::flow_id_t f = 1; f <= 128; ++f) {
      const auto before = w.shadow_inferences();
      engine.route(w, 0, f, 0.0, input, out);
      if (w.shadow_inferences() > before) sampled.insert(f);
    }
    return std::pair{sampled, engine.shadow_evidence(0)};
  };
  const auto [set1, v1] = run();
  const auto [set2, v2] = run();
  EXPECT_FALSE(set1.empty());
  EXPECT_EQ(set1, set2);
  EXPECT_EQ(v1.samples, v2.samples);
  EXPECT_DOUBLE_EQ(v1.mean_divergence, v2.mean_divergence);
  EXPECT_DOUBLE_EQ(v1.max_divergence, v2.max_divergence);
}

TEST(RtShadow, TrySwitchGateBlocksDriftThenAdmitsRetrain) {
  rt::engine_config cfg;
  cfg.max_workers = 1;
  cfg.shadow.sample_rate = 1.0;
  cfg.shadow.min_samples = 16;
  rt::datapath_engine engine{cfg};
  rt::worker_handle& w = engine.register_worker();
  std::vector<fp::s64> input(8), out(1);
  rng g{0x9a4};
  // Spread the shadow probes over the input space: a single constant input
  // can land where two random nets happen to agree.
  const auto pump = [&](int n) {
    for (int i = 0; i < n; ++i) {
      for (auto& x : input) x = g.uniform_int(-900, 900);
      engine.route(w, 0, 1 + static_cast<netsim::flow_id_t>(i), 0.0, input,
                   out);
    }
  };

  // Bootstrap: no incumbent => always ships, regardless of evidence.
  engine.install(0, rt_snapshot(1, 1));
  rt::switch_outcome boot = engine.try_switch(0);
  EXPECT_TRUE(boot.flipped());

  // Drifted candidate: measured live, blocked; the incumbent keeps serving.
  engine.install(0, rt_snapshot(777, 2));
  pump(32);
  rt::switch_outcome blocked = engine.try_switch(0);
  EXPECT_EQ(blocked.status, rt::switch_outcome::result::gate_blocked);
  EXPECT_GT(blocked.verdict.mean_divergence,
            engine.config().shadow.divergence_threshold);
  EXPECT_EQ(engine.gate_blocks(), 1u);
  EXPECT_EQ(engine.switches(), 1u);  // no flip happened

  // Retrained candidate (same weights as the active): admitted.
  engine.install(0, rt_snapshot(1, 3));
  pump(32);
  rt::switch_outcome admitted = engine.try_switch(0);
  EXPECT_TRUE(admitted.flipped());
  EXPECT_DOUBLE_EQ(admitted.verdict.max_divergence, 0.0);
  EXPECT_EQ(engine.switches(), 2u);

  // No standby: counted no-op, distinct from a gate block.
  rt::switch_outcome noop = engine.try_switch(0);
  EXPECT_EQ(noop.status, rt::switch_outcome::result::no_standby);
  EXPECT_EQ(engine.switch_noops(), 1u);
}

}  // namespace
