// Tests for the load-balancing application (§5.3): path stats tracking,
// selectors, the pretraining prior, and small end-to-end experiment runs.
#include <gtest/gtest.h>

#include "apps/lb/lb_experiment.hpp"
#include "apps/lb/load_balance.hpp"
#include "codegen/snapshot.hpp"
#include "nn/serialize.hpp"

namespace {

using namespace lf;
using namespace lf::apps;

// ---------------------------------------------------- path stats tracker --

TEST(PathStatsTracker, EwmaTracksEcnAndRtt) {
  path_stats_tracker t{2};
  transport::ack_event ev;
  ev.newly_acked_bytes = 1460;
  ev.rtt = 100e-6;
  ev.ecn_echo = true;
  for (int i = 0; i < 50; ++i) t.on_ack(1, ev);
  ev.ecn_echo = false;
  ev.rtt = 50e-6;
  for (int i = 0; i < 50; ++i) t.on_ack(2, ev);
  const auto f = t.features();
  ASSERT_EQ(f.size(), 6u);
  EXPECT_GT(f[0], 0.8);   // path 1 ECN high
  EXPECT_LT(f[3], 0.01);  // path 2 ECN low
  EXPECT_GT(f[1], f[4]);  // path 1 rtt_norm worse
}

TEST(PathStatsTracker, IgnoresEcmpTaggedAcks) {
  path_stats_tracker t{2};
  transport::ack_event ev;
  ev.newly_acked_bytes = 1460;
  ev.ecn_echo = true;
  t.on_ack(0, ev);   // ECMP tag
  t.on_ack(9, ev);   // out of range
  const auto f = t.features();
  for (const double v : f) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(PathStatsTracker, RejectsZeroPaths) {
  EXPECT_THROW(path_stats_tracker{0}, std::invalid_argument);
}

// --------------------------------------------------------------- selectors --

TEST(EcmpSelector, AlwaysReturnsZero) {
  ecmp_selector sel;
  std::uint32_t got = 99;
  sel.select(1, {}, [&](std::uint32_t tag) { got = tag; });
  EXPECT_EQ(got, 0u);
}

TEST(LbPretrainDataset, EncodesPathQualityPrior) {
  const auto data = make_lb_pretrain_dataset(2, 100, 1);
  ASSERT_EQ(data.size(), 100u);
  for (const auto& s : data) {
    ASSERT_EQ(s.input.size(), 6u);
    ASSERT_EQ(s.target.size(), 2u);
    // Path with lower ecn+rtt must have the higher target score.
    const double score0 = 1.0 - 0.7 * s.input[0] - 0.3 * s.input[1];
    EXPECT_NEAR(s.target[0], score0, 1e-12);
  }
}

TEST(LiteflowPathSelector, PrefersUncongestedPath) {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  core::liteflow_core core{s, cpu, costs};
  // Train the LB MLP on the prior and install it.
  rng g{3};
  supervised_adapter adapter{nn::make_lb_mlp_net(g, 2), 3e-3, 1, 3};
  adapter.pretrain(make_lb_pretrain_dataset(2, 1500, 4), 200);
  core.register_model(codegen::generate_snapshot(adapter.model(), "lb", 1));
  core.switch_active();

  liteflow_path_selector sel{core, 2};
  // Path 1 congested (high ECN, high rtt), path 2 clean.  Selection is
  // weighted-random (anti-herding), so assert statistically.
  std::vector<double> features{0.9, 0.8, 0.5, 0.05, 0.1, 0.5};
  int path2 = 0;
  for (int i = 0; i < 100; ++i) {
    sel.select(static_cast<netsim::flow_id_t>(i + 1), features,
               [&](std::uint32_t tag) { path2 += (tag == 2); });
    s.run();
  }
  EXPECT_GE(path2, 85);
  // And the mirrored situation prefers path 1.
  std::vector<double> mirrored{0.05, 0.1, 0.5, 0.9, 0.8, 0.5};
  int path1 = 0;
  for (int i = 0; i < 100; ++i) {
    sel.select(static_cast<netsim::flow_id_t>(i + 200), mirrored,
               [&](std::uint32_t tag) { path1 += (tag == 1); });
    s.run();
  }
  EXPECT_GE(path1, 85);
}

TEST(WeightedPathChoice, PrefersBetterButSplitsTies) {
  rng g{9};
  const double clear[] = {0.1, 0.9};
  int second = 0;
  for (int i = 0; i < 500; ++i) second += (weighted_path_choice(clear, g) == 2);
  EXPECT_GE(second, 450);  // strong preference
  const double tie[] = {0.5, 0.5};
  int first = 0;
  for (int i = 0; i < 500; ++i) first += (weighted_path_choice(tie, g) == 1);
  EXPECT_GT(first, 150);   // ties split roughly evenly
  EXPECT_LT(first, 350);
}

TEST(UserspacePathSelector, SameDecisionHigherLatency) {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  kernelsim::crossspace_channel ch{s, cpu, costs,
                                   kernelsim::channel_kind::char_device};
  rng g{5};
  supervised_adapter adapter{nn::make_lb_mlp_net(g, 2), 3e-3, 1, 5};
  adapter.pretrain(make_lb_pretrain_dataset(2, 1500, 6), 200);
  userspace_path_selector sel{ch, costs, adapter.model()};
  std::vector<double> features{0.9, 0.8, 0.5, 0.05, 0.1, 0.5};
  int path2 = 0;
  double done_at = 0.0;
  for (int i = 0; i < 50; ++i) {
    sel.select(1, features, [&](std::uint32_t tag) {
      path2 += (tag == 2);
      done_at = s.now();
    });
    s.run();
  }
  EXPECT_GE(path2, 42);
  EXPECT_GT(done_at, 1e-6);  // paid the char-device round trip
}

// ------------------------------------------------------------ experiment --

lb_experiment_config tiny_lb(lb_deployment d) {
  lb_experiment_config cfg;
  cfg.deployment = d;
  cfg.hosts_per_leaf = 2;
  cfg.arrival_rate = 400.0;
  cfg.total_flows = 100;
  cfg.pretrain_samples = 800;
  cfg.pretrain_epochs = 120;
  cfg.hotspot_bps = 6e9;
  cfg.max_sim_time = 10.0;
  return cfg;
}

class LbDeploymentSmoke : public ::testing::TestWithParam<lb_deployment> {};

TEST_P(LbDeploymentSmoke, CompletesFlows) {
  const auto result = run_lb_experiment(tiny_lb(GetParam()));
  EXPECT_GT(result.completed, 80u);
  if (GetParam() != lb_deployment::ecmp) {
    EXPECT_GT(result.selector_calls, 100u);  // per-flow + flowlet reselects
  }
}

INSTANTIATE_TEST_SUITE_P(Deployments, LbDeploymentSmoke,
                         ::testing::Values(lb_deployment::liteflow,
                                           lb_deployment::liteflow_noa,
                                           lb_deployment::chardev,
                                           lb_deployment::ecmp));

TEST(LbExperiment, LearnedSelectorBeatsEcmpUnderHotspot) {
  // The headline shape of Fig. 17: with a moving hotspot congesting one
  // spine, the learned selector avoids it while ECMP halves onto it.
  auto lf_cfg = tiny_lb(lb_deployment::liteflow);
  auto ecmp_cfg = tiny_lb(lb_deployment::ecmp);
  lf_cfg.total_flows = ecmp_cfg.total_flows = 150;
  const auto lf_result = run_lb_experiment(lf_cfg);
  const auto ecmp_result = run_lb_experiment(ecmp_cfg);
  // Compare overall mean FCT weighted across classes (long flows dominate).
  EXPECT_LT(lf_result.long_flows.mean_seconds,
            ecmp_result.long_flows.mean_seconds);
}

}  // namespace
