// Cross-module integration tests: the deployment labels every app reports
// under, determinism of whole experiments, the full LiteFlow pipeline (collect -> batch -> adapt -> sync -> install ->
// switch) with a real RL slow path, pin-gated module unloads, and the
// generated-code path exercised through the live core module.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "apps/cc/cc_experiment.hpp"
#include "apps/common/liteflow_stack.hpp"
#include "apps/lb/lb_experiment.hpp"
#include "apps/sched/flow_sched.hpp"
#include "apps/sched/sched_experiment.hpp"
#include "codegen/compiled_snapshot.hpp"
#include "netsim/topology.hpp"
#include "nn/serialize.hpp"

namespace {

using namespace lf;
using namespace lf::apps;

/// lf_query_model on `core`, with the simulation run until the simulated
/// CPU served it (at most 1 s of simulated time).  The result lives on the
/// heap: an unserved query's callback may still run after this returns.
std::vector<fp::s64> query(sim::simulation& s, core::liteflow_core& core,
                           netsim::flow_id_t flow, std::vector<fp::s64> x) {
  auto out = std::make_shared<std::optional<std::vector<fp::s64>>>();
  core.query_model(flow, std::move(x),
                   [out](std::vector<fp::s64> y) { *out = std::move(y); });
  for (int i = 0; i < 1000 && !*out; ++i) s.run_until(s.now() + 1e-3);
  EXPECT_TRUE(out->has_value());
  return out->value_or(std::vector<fp::s64>{});
}

// ------------------------------------------------------ deployment labels --

TEST(DeploymentLabels, EveryDeploymentKeepsItsLabel) {
  // These labels key BENCH summaries and name TRACE/REPORT files, so a
  // respelling silently breaks every consumer; -Wswitch only checks that
  // each enumerator has a case.
  EXPECT_EQ(to_string(cc_scheme::lf_aurora), "LF-Aurora");
  EXPECT_EQ(to_string(cc_scheme::lf_mocc), "LF-MOCC");
  EXPECT_EQ(to_string(cc_scheme::lf_aurora_noa), "LF-Aurora-N-O-A");
  EXPECT_EQ(to_string(cc_scheme::lf_dummy), "LF-Dummy-NN");
  EXPECT_EQ(to_string(cc_scheme::ccp_aurora), "CCP-Aurora");
  EXPECT_EQ(to_string(cc_scheme::ccp_mocc), "CCP-MOCC");
  EXPECT_EQ(to_string(cc_scheme::kernel_train_aurora), "Kernel-Train-Aurora");
  EXPECT_EQ(to_string(cc_scheme::bbr), "BBR");
  EXPECT_EQ(to_string(cc_scheme::cubic), "CUBIC");
  EXPECT_EQ(to_string(sched_deployment::liteflow), "LF-FFNN");
  EXPECT_EQ(to_string(sched_deployment::liteflow_noa), "LF-FFNN-N-O-A");
  EXPECT_EQ(to_string(sched_deployment::chardev), "char-FFNN");
  EXPECT_EQ(to_string(sched_deployment::netlink_dev), "netlink-FFNN");
  EXPECT_EQ(to_string(sched_deployment::no_prediction), "no-prediction");
  EXPECT_EQ(to_string(sched_deployment::oracle), "oracle");
  EXPECT_EQ(to_string(lb_deployment::liteflow), "LF-MLP");
  EXPECT_EQ(to_string(lb_deployment::liteflow_noa), "LF-MLP-N-O-A");
  EXPECT_EQ(to_string(lb_deployment::chardev), "char-MLP");
  EXPECT_EQ(to_string(lb_deployment::ecmp), "ECMP");
}

// ------------------------------------------------------------ determinism --

TEST(Determinism, IdenticalSeedsGiveIdenticalExperiments) {
  auto run_once = []() {
    cc_single_flow_config cfg;
    cfg.scheme = cc_scheme::lf_aurora;
    cfg.duration = 2.0;
    cfg.warmup = 0.5;
    cfg.pretrain_iterations = 100;
    cfg.net.bottleneck_bps = 200e6;
    cfg.seed = 12345;
    return run_cc_single_flow(cfg);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.mean_goodput, b.mean_goodput);
  EXPECT_DOUBLE_EQ(a.stddev_goodput, b.stddev_goodput);
  EXPECT_EQ(a.snapshot_updates, b.snapshot_updates);
  ASSERT_EQ(a.goodput.size(), b.goodput.size());
  for (std::size_t i = 0; i < a.goodput.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.goodput.points()[i].second,
                     b.goodput.points()[i].second);
  }
}

TEST(Determinism, DifferentSeedsDiffer) {
  auto run_with_seed = [](std::uint64_t seed) {
    cc_single_flow_config cfg;
    cfg.scheme = cc_scheme::lf_aurora;
    cfg.duration = 2.0;
    cfg.warmup = 0.5;
    cfg.pretrain_iterations = 100;
    cfg.net.bottleneck_bps = 200e6;
    cfg.seed = seed;
    return run_cc_single_flow(cfg).mean_goodput;
  };
  EXPECT_NE(run_with_seed(1), run_with_seed(2));
}

// --------------------------------------------------- module lifecycle e2e --

TEST(ModuleLifecycle, UnregisterDeferredWhileQueryInFlight) {
  // A query queued on the CPU keeps its version loaded until the CPU serves
  // it, even after a switch demotes that version.  The cache is off, as for
  // CC, so the query's pin is the only one.
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  core::liteflow_core core{s, cpu, costs, /*flow_cache=*/false};
  rng g{4};
  const auto v1 =
      codegen::generate_snapshot(nn::make_ffnn_flow_size_net(g), "m", 1);
  const auto v2 =
      codegen::generate_snapshot(nn::make_ffnn_flow_size_net(g), "m", 2);
  core.register_model(v1);
  core.switch_active();

  // Saturate the CPU so the query stays queued, then switch mid-flight.
  cpu.submit(kernelsim::task_category::other, 1e-3);
  const std::vector<fp::s64> x(v1.input_size(), 100);
  ASSERT_NE(v1.program.infer(x), v2.program.infer(x));
  std::vector<fp::s64> out;
  core.query_model(7, x, [&](std::vector<fp::s64> o) { out = std::move(o); });
  core.register_model(v2);
  core.switch_active();
  EXPECT_EQ(core.engine().versions_live(), 2u);  // the query pins v1
  s.run();
  // The query completed against the version that routed it, which then
  // unloaded.
  EXPECT_EQ(out, v1.program.infer(x));
  EXPECT_EQ(core.engine().versions_live(), 1u);
  EXPECT_EQ(core.engine().versions_retired(), 1u);
}

// ------------------------------------------------- full slow-path pipeline --

TEST(Pipeline, EndToEndAdaptationUpdatesSnapshotAndChangesOutputs) {
  // A supervised adapter whose target function changes mid-run: the full
  // LiteFlow loop must propagate the change into the kernel snapshot.
  sim::simulation s;
  kernelsim::cost_model costs;
  netsim::dumbbell net{s, {}};
  auto& h = net.sender();

  rng g{5};
  supervised_adapter adapter{nn::make_ffnn_flow_size_net(g), 1e-2, 30, 5};
  // Pretrain to output ~0.2 everywhere.
  std::vector<nn::training_sample> initial;
  rng xs{6};
  for (int i = 0; i < 128; ++i) {
    std::vector<double> x(8);
    for (auto& v : x) v = xs.uniform(0.0, 1.0);
    initial.push_back({x, {0.2}});
  }
  adapter.pretrain(initial, 200);

  liteflow_stack_options opts;
  opts.model_name = "pipeline";
  opts.batch_interval = 0.05;
  opts.sync.output_min = 0.0;
  opts.sync.output_max = 1.0;
  liteflow_stack stack{h, adapter, opts};
  stack.start();
  s.run_until(0.01);

  const fp::s64 scale = stack.core().active_io_scale();
  std::vector<fp::s64> probe(8, scale / 2);  // x = 0.5 everywhere
  const auto before = query(s, stack.core(), 1, probe);
  ASSERT_EQ(before.size(), 1u);
  EXPECT_NEAR(static_cast<double>(before[0]) / static_cast<double>(scale), 0.2,
              0.05);

  // Feed batches whose labels moved to ~0.8: the slow path retrains and the
  // service must find the update both converged and necessary, which takes
  // a full stability window of batches.
  for (int round = 0; round < 2 * static_cast<int>(core::k_stability_window);
       ++round) {
    for (int i = 0; i < 16; ++i) {
      core::train_sample sample;
      sample.features.assign(8, 0.5);
      sample.aux = {0.8};
      stack.collector().collect(std::move(sample));
    }
    s.run_until(s.now() + 0.06);
  }
  EXPECT_GE(stack.service().snapshot_updates(), 1u);
  const auto after = query(s, stack.core(), 2, probe);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_NEAR(static_cast<double>(after[0]) / static_cast<double>(scale), 0.8,
              0.1);
  // Version advanced and exactly one model remains installed (old ones
  // unloaded once unreferenced).
  EXPECT_GT(stack.service().current_version(), 1u);
}

TEST(Pipeline, GeneratedSourceOfLiveSnapshotCompilesAndMatches) {
  if (!codegen::compiler_available()) GTEST_SKIP() << "no gcc";
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  core::liteflow_core core{s, cpu, costs};
  rng g{8};
  const auto net = nn::make_lb_mlp_net(g, 2);
  // An installed version keeps its program, not its C text: compile the
  // text of the snapshot generated here, then register that snapshot.
  auto snap = codegen::generate_snapshot(net, "lb", 1);
  const auto compiled = codegen::compiled_snapshot::compile(snap.c_source);
  core.register_model(std::move(snap));
  core.switch_active();

  const auto* live = core.active_snapshot();
  ASSERT_NE(live, nullptr);
  EXPECT_TRUE(live->c_source.empty());
  std::vector<fp::s64> x(net.input_size());
  rng xs{9};
  for (auto& v : x) v = xs.uniform_int(-1000, 1000);
  EXPECT_EQ(compiled.infer(x, net.output_size()), query(s, core, 1, x));
}

// --------------------------------------------------------- cc overhead e2e --

TEST(Integration, LiteflowOverheadTracksBbr) {
  // Small-scale Fig. 13 sanity: LF-Aurora's aggregate throughput lands
  // within 15% of BBR's in a CPU-bound setting.
  cc_overhead_config bbr_cfg;
  bbr_cfg.scheme = cc_scheme::bbr;
  bbr_cfg.n_flows = 4;
  bbr_cfg.duration = 1.5;
  const double bbr = run_cc_overhead(bbr_cfg).mean_goodput;

  cc_overhead_config lf_cfg;
  lf_cfg.scheme = cc_scheme::lf_aurora;
  lf_cfg.n_flows = 4;
  lf_cfg.duration = 1.5;
  lf_cfg.pretrain_iterations = 400;
  const double lf = run_cc_overhead(lf_cfg).mean_goodput;
  EXPECT_GT(lf, 0.8 * bbr);
}

TEST(Integration, KernelTrainingCrushesThroughput) {
  // §2.3's anti-pattern sanity: in-kernel SGD costs the datapath dearly.
  cc_overhead_config bbr_cfg;
  bbr_cfg.scheme = cc_scheme::bbr;
  bbr_cfg.n_flows = 6;
  bbr_cfg.duration = 0.8;
  const double bbr = run_cc_overhead(bbr_cfg).mean_goodput;

  cc_overhead_config kt_cfg;
  kt_cfg.scheme = cc_scheme::kernel_train_aurora;
  kt_cfg.n_flows = 6;
  kt_cfg.duration = 0.8;
  kt_cfg.pretrain_iterations = 150;
  const double kt = run_cc_overhead(kt_cfg).mean_goodput;
  EXPECT_LT(kt, 0.6 * bbr);
}

}  // namespace
