// Tests for the flow-scheduling application (§5.2): encodings, context
// features, the correlated workload, predictors, and small end-to-end
// experiment runs for every deployment.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/sched/flow_sched.hpp"
#include "apps/sched/sched_experiment.hpp"
#include "netsim/topology.hpp"
#include "nn/serialize.hpp"

namespace {

using namespace lf;
using namespace lf::apps;

// ------------------------------------------------------------- encodings --

TEST(SizeEncoding, RoundTripsAcrossScales) {
  for (const double bytes : {500.0, 5e3, 5e4, 5e5, 5e6, 5e7}) {
    const double y = encode_flow_size(bytes);
    EXPECT_GT(y, 0.0);
    EXPECT_LT(y, 1.0);
    EXPECT_NEAR(decode_flow_size(y), bytes, bytes * 0.01);
  }
}

TEST(SizeEncoding, PriorityBands) {
  EXPECT_EQ(priority_for_predicted_size(5e3), 1);    // short: high band
  EXPECT_EQ(priority_for_predicted_size(5e4), 3);    // mid
  EXPECT_EQ(priority_for_predicted_size(5e6), 5);    // long: low band
  EXPECT_EQ(k_unknown_priority, 7);
}

// ------------------------------------------------------- context tracker --

TEST(FlowContextTracker, FeaturesReflectHistory) {
  flow_context_tracker t;
  const auto cold = t.features(0, 1, 0.0);
  ASSERT_EQ(cold.size(), k_sched_features);
  EXPECT_DOUBLE_EQ(cold[0], 0.0);  // no history yet
  EXPECT_DOUBLE_EQ(cold[7], 1.0);  // bias

  t.on_flow_start(0, 1, 0.0);
  t.on_flow_complete(0, 1, 0.1, 1'000'000);  // a long flow
  const auto warm = t.features(0, 1, 0.2);
  EXPECT_GT(warm[0], 0.0);             // prev size seen
  EXPECT_DOUBLE_EQ(warm[5], 1.0);      // prev-long indicator
  EXPECT_DOUBLE_EQ(warm[4], 0.0);      // not short
}

TEST(FlowContextTracker, ActiveCountRisesAndFalls) {
  flow_context_tracker t;
  t.on_flow_start(0, 1, 0.0);
  t.on_flow_start(0, 2, 0.0);
  EXPECT_GT(t.features(0, 3, 0.0)[6], 0.0);
  t.on_flow_complete(0, 1, 0.1, 1000);
  t.on_flow_complete(0, 2, 0.1, 1000);
  EXPECT_DOUBLE_EQ(t.features(0, 3, 0.2)[6], 0.0);
}

// --------------------------------------------------- correlated workload --

TEST(CorrelatedSizeProcess, ConsecutiveSizesCorrelate) {
  correlated_size_process proc{8, 0.9, 42};
  // Correlation in log space between consecutive draws on one pair.
  std::vector<double> prev, cur;
  double last = std::log(static_cast<double>(proc.next_size(0, 1)));
  for (int i = 0; i < 500; ++i) {
    const double v = std::log(static_cast<double>(proc.next_size(0, 1)));
    prev.push_back(last);
    cur.push_back(v);
    last = v;
  }
  const double mp = mean_of(prev);
  const double mc = mean_of(cur);
  double cov = 0.0;
  double vp = 0.0;
  double vc = 0.0;
  for (std::size_t i = 0; i < prev.size(); ++i) {
    cov += (prev[i] - mp) * (cur[i] - mc);
    vp += (prev[i] - mp) * (prev[i] - mp);
    vc += (cur[i] - mc) * (cur[i] - mc);
  }
  const double corr = cov / std::sqrt(vp * vc);
  EXPECT_GT(corr, 0.6);  // rho = 0.9 with noise
}

TEST(CorrelatedSizeProcess, ShiftChangesDistribution) {
  correlated_size_process proc{8, 0.9, 43};
  double before = 0.0;
  for (int i = 0; i < 100; ++i) {
    before += std::log(static_cast<double>(proc.next_size(2, 3)));
  }
  proc.shift_pattern();
  double after = 0.0;
  for (int i = 0; i < 100; ++i) {
    after += std::log(static_cast<double>(proc.next_size(2, 3)));
  }
  // Means differ with high probability when the pair's mu re-draws to the
  // other application mode (the test seed is chosen so it does).
  EXPECT_GT(std::abs(before - after) / 100.0, 0.5);
}

// ----------------------------------------------------------- predictors --

TEST(SupervisedAdapter, LearnsFromBatches) {
  rng g{7};
  supervised_adapter adapter{nn::make_ffnn_flow_size_net(g), 3e-3, 50, 1};
  // Target: y = mean of first two features.
  std::vector<core::train_sample> batch;
  rng xs{8};
  for (int i = 0; i < 64; ++i) {
    core::train_sample s;
    s.features.resize(8);
    for (auto& f : s.features) f = xs.uniform(0.0, 1.0);
    s.aux = {0.5 * (s.features[0] + s.features[1])};
    batch.push_back(std::move(s));
  }
  for (int round = 0; round < 20; ++round) adapter.adapt(batch);
  double worst = 0.0;
  for (const auto& s : batch) {
    worst = std::max(worst,
                     std::abs(adapter.evaluate(s.features)[0] - s.aux[0]));
  }
  EXPECT_LT(worst, 0.2);
  EXPECT_LT(adapter.stability_value(), 0.01);  // loss fell
}

TEST(LiteflowSizePredictor, ReturnsZeroWithoutModel) {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  core::liteflow_core core{s, cpu, costs};
  liteflow_size_predictor pred{core};
  double got = -1.0;
  pred.predict(1, std::vector<double>(8, 0.5), [&](double b) { got = b; });
  s.run();
  EXPECT_DOUBLE_EQ(got, 0.0);
}

TEST(LiteflowSizePredictor, MatchesQuantizedModelOutput) {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  core::liteflow_core core{s, cpu, costs};
  rng g{9};
  const auto net = nn::make_ffnn_flow_size_net(g);
  core.register_model(codegen::generate_snapshot(net, "ffnn", 1));
  core.switch_active();
  liteflow_size_predictor pred{core};
  const std::vector<double> features(8, 0.5);
  double got = 0.0;
  pred.predict(1, features, [&](double b) { got = b; });
  s.run();
  const double expected = decode_flow_size(net.forward(features)[0]);
  // Quantization error in y maps to a small multiplicative size error.
  EXPECT_NEAR(std::log10(got), std::log10(expected), 0.1);
}

TEST(UserspaceSizePredictor, PaysChannelLatency) {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  kernelsim::crossspace_channel ch{s, cpu, costs,
                                   kernelsim::channel_kind::netlink};
  rng g{10};
  const auto net = nn::make_ffnn_flow_size_net(g);
  userspace_size_predictor pred{ch, costs, net};
  double done_at = -1.0;
  pred.predict(1, std::vector<double>(8, 0.5), [&](double) { done_at = s.now(); });
  s.run();
  EXPECT_GT(done_at, costs.netlink_roundtrip_latency * 0.9);
  EXPECT_EQ(ch.round_trips(), 1u);
}

// ------------------------------------------------------------ experiment --

sched_experiment_config tiny_config(sched_deployment d) {
  sched_experiment_config cfg;
  cfg.deployment = d;
  cfg.hosts_per_leaf = 2;  // 4 hosts
  cfg.arrival_rate = 500.0;
  cfg.total_flows = 120;
  cfg.pretrain_flows = 400;
  cfg.pretrain_epochs = 60;
  cfg.max_sim_time = 10.0;
  return cfg;
}

class SchedDeploymentSmoke
    : public ::testing::TestWithParam<sched_deployment> {};

TEST_P(SchedDeploymentSmoke, CompletesFlowsAndReportsStats) {
  const auto result = run_sched_experiment(tiny_config(GetParam()));
  EXPECT_GT(result.completed, 100u);
  EXPECT_GT(result.short_flows.count + result.mid_flows.count +
                result.long_flows.count,
            100u);
  if (GetParam() != sched_deployment::no_prediction &&
      GetParam() != sched_deployment::oracle) {
    EXPECT_GT(result.mean_prediction_latency, 0.0);
    EXPECT_LT(result.mean_prediction_latency, 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Deployments, SchedDeploymentSmoke,
    ::testing::Values(sched_deployment::liteflow, sched_deployment::liteflow_noa,
                      sched_deployment::chardev, sched_deployment::netlink_dev,
                      sched_deployment::no_prediction, sched_deployment::oracle));

TEST(SchedExperiment, LiteflowPredictionFasterThanNetlink) {
  auto lf_result =
      run_sched_experiment(tiny_config(sched_deployment::liteflow));
  auto nl_result =
      run_sched_experiment(tiny_config(sched_deployment::netlink_dev));
  // Fig. 15's ordering: kernel snapshot inference beats netlink round trips.
  EXPECT_LT(lf_result.mean_prediction_latency,
            nl_result.mean_prediction_latency);
}

TEST(SchedExperiment, PredictionsBeatGuessing) {
  // Prediction quality: mean |log10(predicted/actual)| clearly under the
  // ~1.0 a size-agnostic guesser scores on this bimodal workload.
  const auto result =
      run_sched_experiment(tiny_config(sched_deployment::liteflow));
  EXPECT_GT(result.mean_abs_log_error, 0.0);
  EXPECT_LT(result.mean_abs_log_error, 0.8);
}

}  // namespace
