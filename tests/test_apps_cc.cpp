// Tests for the congestion-control application layer: feature history,
// the Aurora adapter, and the LiteFlow/CCP/kernel-train deployments built
// from their parts on the dumbbell testbed.
#include <gtest/gtest.h>

#include "apps/cc/aurora_adapter.hpp"
#include "apps/cc/cc_controllers.hpp"
#include "apps/common/liteflow_stack.hpp"
#include "netsim/topology.hpp"
#include "nn/serialize.hpp"
#include "transport/rate_sender.hpp"

namespace {

using namespace lf;
using namespace lf::apps;

// -------------------------------------------------------- feature history --

TEST(FeatureHistory, ZeroPaddedThenSliding) {
  feature_history h{3};
  EXPECT_EQ(h.features().size(), 9u);
  for (const double f : h.features()) EXPECT_DOUBLE_EQ(f, 0.0);
  transport::mi_observation obs;
  obs.send_rate = 2e8;
  obs.throughput = 1e8;  // send ratio - 1 = 1
  obs.avg_rtt = obs.min_rtt = 10e-3;
  h.push(obs);
  const auto& f = h.features();
  EXPECT_DOUBLE_EQ(f[8], 1.0);   // newest slot, send-ratio feature
  EXPECT_DOUBLE_EQ(f[0], 0.0);   // oldest still zero
  for (int i = 0; i < 5; ++i) h.push(obs);
  EXPECT_EQ(h.features().size(), 9u);  // window is bounded
  EXPECT_DOUBLE_EQ(h.features()[2], 1.0);  // oldest slot now populated
}

// -------------------------------------------------------- aurora adapter --

TEST(AuroraAdapter, PretrainImprovesGreedyReward) {
  aurora_adapter_config cfg;
  cfg.env.bandwidth_bps = 100e6;
  cfg.env.background_bps = 10e6;
  aurora_adapter adapter{cfg};
  const double before = adapter.trainer().evaluate_greedy(3);
  adapter.pretrain(200);
  const double after = adapter.trainer().evaluate_greedy(3);
  EXPECT_GT(after, before);
  EXPECT_GT(after, 4.0);
}

TEST(AuroraAdapter, AdaptReestimatesEnvironmentFromBatch) {
  aurora_adapter_config cfg;
  cfg.iterations_per_batch = 1;
  aurora_adapter adapter{cfg};
  std::vector<core::train_sample> batch;
  core::train_sample s1;
  s1.features = std::vector<double>(30, 0.0);
  // aux = {throughput, send_rate, min_rtt, loss}
  s1.aux = {48e6, 50e6, 20e-3, 0.02};
  batch.push_back(s1);
  core::train_sample s2 = s1;
  s2.aux = {73e6, 90e6, 22e-3, 0.01};
  batch.push_back(s2);
  adapter.adapt(batch);
  // Bandwidth: rises to observed max but never below the pretraining
  // prior's available bandwidth (collapse protection) — here the prior
  // (1 Gbps - 0.1 Gbps background) dominates the observed 73 Mbps.
  EXPECT_DOUBLE_EQ(adapter.estimated_bandwidth(), 0.9e9);
  EXPECT_DOUBLE_EQ(adapter.estimated_rtt(), 20e-3);  // min rtt
  // Loss: send-rate-weighted mean = (0.02*50M + 0.01*90M) / 140M.
  EXPECT_NEAR(adapter.estimated_loss(), (0.02 * 50e6 + 0.01 * 90e6) / 140e6,
              1e-9);
  EXPECT_DOUBLE_EQ(adapter.environment().config().bandwidth_bps, 0.9e9);

  // A later batch with a higher observed rate raises the estimate.
  core::train_sample s3 = s1;
  s3.aux = {1.2e9, 1.3e9, 18e-3, 0.0};
  adapter.adapt(std::vector<core::train_sample>{s3});
  EXPECT_DOUBLE_EQ(adapter.estimated_bandwidth(), 1.2e9);
}

TEST(AuroraAdapter, FreezeEvaluateRoundTrip) {
  aurora_adapter_config cfg;
  aurora_adapter adapter{cfg};
  const auto frozen = adapter.freeze_model();
  const auto loaded = nn::load_mlp_from_string(frozen);
  std::vector<double> x(30, 0.15);
  EXPECT_EQ(adapter.evaluate(x), loaded.forward(x));
  EXPECT_EQ(adapter.parameter_count(), loaded.parameter_count());
}

TEST(AuroraAdapter, MoccUsesLargerNet) {
  aurora_adapter_config a;
  a.model = cc_model::aurora;
  aurora_adapter_config m;
  m.model = cc_model::mocc;
  EXPECT_GT(aurora_adapter{m}.parameter_count(),
            aurora_adapter{a}.parameter_count());
}

// --------------------------------------------------------- liteflow stack --
// The deployments are built from parts, as cc_experiment builds them: an
// aurora_adapter plus a liteflow_stack, a CCP channel, or nothing (kernel
// training), and a controller per flow.

struct cc_rig {
  sim::simulation s;
  netsim::dumbbell_config dcfg;
  std::unique_ptr<netsim::dumbbell> net;

  explicit cc_rig(double bw = 200e6, double rtt = 10e-3) {
    dcfg.bottleneck_bps = bw;
    dcfg.rtt = rtt;
    net = std::make_unique<netsim::dumbbell>(s, dcfg);
  }
};

/// Every deployment here pretrains from seed 7.
aurora_adapter_config seeded_adapter() {
  aurora_adapter_config a;
  a.seed = 7;
  return a;
}

/// The slow-path environment matched to the 200 Mbps, 10 ms rig.
aurora_adapter_config matched_adapter() {
  auto a = seeded_adapter();
  a.env.bandwidth_bps = 200e6;
  a.env.background_bps = 0.0;
  a.env.base_rtt = 10e-3;
  return a;
}

/// LF-Aurora on one sender: the stack runs with the flow cache off and the
/// CC input collector / output enforcer module registered.
struct lf_cc_parts {
  aurora_adapter adapter;
  liteflow_stack stack;
  bool adaptation;

  lf_cc_parts(netsim::host& h, bool adapt)
      : adapter{matched_adapter()},
        stack{h, adapter,
              liteflow_stack_options{.model_name = "aurora",
                                     .adaptation = adapt,
                                     .flow_cache = false}},
        adaptation{adapt} {
    stack.core().register_io(core::io_module_spec{
        "liteflow-cc", adapter.model().input_size(),
        adapter.model().output_size()});
  }

  void start() {
    adapter.pretrain(250);
    stack.start();
  }

  std::unique_ptr<transport::rate_controller> make_controller(
      netsim::flow_id_t flow) {
    return std::make_unique<liteflow_cc_controller>(
        stack.core(), adaptation ? &stack.collector() : nullptr, flow,
        cc_controller_config{});
  }
};

TEST(LiteflowCcStack, StartInstallsSnapshotAndRegistersIo) {
  cc_rig rig;
  lf_cc_parts lf{rig.net->sender(), true};
  lf.start();
  rig.s.run_until(0.01);
  EXPECT_NE(lf.stack.core().active_snapshot(), nullptr);
  EXPECT_EQ(lf.stack.core().io_module_count(), 1u);
  EXPECT_EQ(lf.stack.service().current_version(), 1u);
}

TEST(LiteflowCcStack, FlowAchievesHighGoodput) {
  // The headline behaviour: an LF-Aurora flow must actually drive the link.
  cc_rig rig;
  lf_cc_parts lf{rig.net->sender(), true};
  lf.start();
  transport::rate_sender_config rc;
  rc.initial_rate_bps = 20e6;
  auto flow = std::make_unique<transport::rate_sender>(
      rig.net->sender(), netsim::dumbbell::receiver_id, 1, rc,
      lf.make_controller(1));
  flow->start();
  rig.s.run_until(4.0);
  const auto bytes_mid = rig.net->receiver().total_delivered_payload();
  rig.s.run_until(8.0);
  const double goodput =
      static_cast<double>(rig.net->receiver().total_delivered_payload() -
                          bytes_mid) *
      8.0 / 4.0;
  flow->stop();
  // Should reach a healthy fraction of the 200 Mbps bottleneck.
  EXPECT_GT(goodput, 100e6);
  EXPECT_GT(lf.stack.core().queries(), 100u);
}

TEST(LiteflowCcStack, CollectorReceivesSamplesAndServiceAdapts) {
  cc_rig rig;
  lf_cc_parts lf{rig.net->sender(), true};
  lf.start();
  transport::rate_sender_config rc;
  auto flow = std::make_unique<transport::rate_sender>(
      rig.net->sender(), netsim::dumbbell::receiver_id, 1, rc,
      lf.make_controller(1));
  flow->start();
  rig.s.run_until(1.0);
  flow->stop();
  EXPECT_GT(lf.stack.collector().samples_delivered(), 0u);
  EXPECT_GT(lf.stack.service().batches_processed(), 0u);
  EXPECT_GT(lf.stack.netlink().one_way_messages(), 0u);
}

TEST(LiteflowCcStack, NoAdaptationVariantNeverUpdates) {
  cc_rig rig;
  lf_cc_parts lf{rig.net->sender(), false};
  lf.start();
  transport::rate_sender_config rc;
  auto flow = std::make_unique<transport::rate_sender>(
      rig.net->sender(), netsim::dumbbell::receiver_id, 1, rc,
      lf.make_controller(1));
  flow->start();
  rig.s.run_until(1.0);
  flow->stop();
  EXPECT_EQ(lf.stack.service().snapshot_updates(), 0u);
}

// ---------------------------------------------------------------- ccp --

/// CCP-Aurora on one sender: the model stays in userspace behind a CCP IPC
/// channel and is consulted every `interval`.
struct ccp_parts {
  kernelsim::crossspace_channel ipc;
  aurora_adapter adapter;
  netsim::host& host;
  double interval;

  ccp_parts(netsim::host& h, aurora_adapter_config a, double ivl,
            std::size_t pretrain)
      : ipc{h.simulator(), h.cpu(), h.costs(),
            kernelsim::channel_kind::ccp_ipc},
        adapter{a}, host{h}, interval{ivl} {
    adapter.pretrain(pretrain);
  }

  std::unique_ptr<transport::rate_controller> make_controller() {
    return std::make_unique<ccp_cc_controller>(
        host.simulator(), ipc, host.costs(), adapter.model(), interval,
        cc_controller_config{});
  }
};

TEST(CcpCcStack, DecisionsArriveAtConfiguredInterval) {
  cc_rig rig;
  auto a = seeded_adapter();
  a.env.bandwidth_bps = 200e6;
  ccp_parts ccp{rig.net->sender(), a, 10e-3, 100};
  transport::rate_sender_config rc;
  auto ctrl = ccp.make_controller();
  auto* ctrl_raw = static_cast<ccp_cc_controller*>(ctrl.get());
  auto flow = std::make_unique<transport::rate_sender>(
      rig.net->sender(), netsim::dumbbell::receiver_id, 1, rc,
      std::move(ctrl));
  flow->start();
  rig.s.run_until(1.0);
  flow->stop();
  // ~1s / 10ms = ~100 decisions.
  EXPECT_GT(ctrl_raw->decisions(), 50u);
  EXPECT_LT(ctrl_raw->decisions(), 150u);
  EXPECT_GT(ccp.ipc.round_trips(), 50u);
}

TEST(CcpCcStack, CrossSpaceOverheadChargedAsSoftirq) {
  cc_rig rig;
  ccp_parts ccp{rig.net->sender(), seeded_adapter(), 1e-3 /* aggressive */,
                50};
  transport::rate_sender_config rc;
  auto flow = std::make_unique<transport::rate_sender>(
      rig.net->sender(), netsim::dumbbell::receiver_id, 1, rc,
      ccp.make_controller());
  flow->start();
  rig.s.run_until(1.0);
  flow->stop();
  const double softirq = rig.net->sender().cpu().busy_seconds(
      kernelsim::task_category::softirq);
  // ~1000 round trips * ~70us = ~70ms of softirq in 1 second.
  EXPECT_GT(softirq, 0.03);
}

// ----------------------------------------------------------- kernel train --

TEST(KernelTrainStack, TrainingBurnsKernelCpu) {
  cc_rig rig;
  aurora_adapter adapter{seeded_adapter()};
  adapter.pretrain(50);
  auto& h = rig.net->sender();
  transport::rate_sender_config rc;
  auto flow = std::make_unique<transport::rate_sender>(
      h, netsim::dumbbell::receiver_id, 1, rc,
      std::make_unique<kernel_train_controller>(
          h.simulator(), h.cpu(), h.costs(), adapter.model(),
          /*train_interval=*/0.05, /*batch_size=*/32, cc_controller_config{}));
  flow->start();
  rig.s.run_until(1.0);
  flow->stop();
  const double ktrain = rig.net->sender().cpu().busy_seconds(
      kernelsim::task_category::kernel_train);
  EXPECT_GT(ktrain, 0.05);  // §2.3: training shreds the kernel CPU budget
}

}  // namespace
