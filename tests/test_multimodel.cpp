// Multi-model serving tests: the composite flow key, the deterministic
// shadow sampler/scorer, and the rt engine's multi-model + shadow-gated
// switching behavior.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "core/model_domain.hpp"
#include "nn/mlp.hpp"
#include "rt/engine.hpp"
#include "util/rng.hpp"

namespace {

using namespace lf;
using namespace lf::core;

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
  sc.bind(7);
  // Unmeasured standby is unproven, not clean.
  EXPECT_FALSE(sc.check(cfg).admit);
  sc.record(0.01, 7);
  sc.record(0.02, 7);
  sc.record(0.01, 7);
  EXPECT_FALSE(sc.check(cfg).admit);  // 3 < min_samples
  sc.record(0.02, 7);
  const shadow_verdict good = sc.check(cfg);
  EXPECT_TRUE(good.admit);
  EXPECT_EQ(good.samples, 4u);
  EXPECT_NEAR(good.mean_divergence, 0.015, 1e-12);
  EXPECT_NEAR(good.max_divergence, 0.02, 1e-12);
  // One divergent burst pushes the mean over the threshold.
  sc.record(1.0, 7);
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

TEST(RtShadow, UnprovenStandbyIsBlockedUntilMeasured) {
  rt::engine_config cfg;
  cfg.models = 2;
  cfg.max_workers = 1;
  cfg.shadow.sample_rate = 1.0;
  cfg.shadow.min_samples = 8;
  rt::datapath_engine engine{cfg};
  rt::worker_handle& w = engine.register_worker();
  engine.install(1, rt_snapshot(5, 1));
  ASSERT_TRUE(engine.try_switch(1).flipped());
  // Identical weights — but zero samples means unproven, and unproven is
  // blocked, not admitted.
  engine.install(1, rt_snapshot(5, 2));
  const rt::switch_outcome unproven = engine.try_switch(1);
  EXPECT_EQ(unproven.status, rt::switch_outcome::result::gate_blocked);
  EXPECT_EQ(unproven.verdict.samples, 0u);
  std::vector<fp::s64> input(8, 100), out(1);
  for (netsim::flow_id_t f = 1; f < cfg.shadow.min_samples; ++f) {
    engine.route(w, 1, f, 0.0, input, out);
  }
  EXPECT_EQ(engine.try_switch(1).status,
            rt::switch_outcome::result::gate_blocked);  // one sample short
  engine.route(w, 1, cfg.shadow.min_samples, 0.0, input, out);
  const rt::switch_outcome measured = engine.try_switch(1);
  EXPECT_TRUE(measured.flipped());
  EXPECT_EQ(measured.verdict.samples, cfg.shadow.min_samples);
  EXPECT_FALSE(engine.has_active(0));  // model 0 never took part
}

}  // namespace
