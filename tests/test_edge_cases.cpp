// Edge-case tests across modules: degenerate model shapes, sigmoid LUT
// code generation, extreme-value serialization, channel ordering under
// congestion, spinlock FIFO semantics, and collector/service corner cases.
#include <gtest/gtest.h>

#include <cmath>

#include "codegen/compiled_snapshot.hpp"
#include "codegen/snapshot.hpp"
#include "core/batch_collector.hpp"
#include "core/userspace_service.hpp"
#include "kernelsim/channel.hpp"
#include "kernelsim/spinlock.hpp"
#include "nn/serialize.hpp"
#include "quant/quantizer.hpp"
#include "util/rng.hpp"

namespace {

using namespace lf;

// ------------------------------------------------------- degenerate nets --

TEST(EdgeCases, SingleLayerLinearNetQuantizesAndCompiles) {
  rng g{1};
  const nn::layer_spec specs[] = {{1, nn::activation::linear}};
  nn::mlp net{1, specs, g};
  const auto snap = codegen::generate_snapshot(net, "tiny", 1);
  EXPECT_EQ(snap.program.mac_count(), 1u);
  const fp::s64 x[] = {500};
  const auto y = snap.program.infer(x);
  EXPECT_EQ(y.size(), 1u);
  if (codegen::compiler_available()) {
    const auto compiled = codegen::compiled_snapshot::compile(snap.c_source);
    EXPECT_EQ(compiled.infer(x, 1), y);
  }
}

TEST(EdgeCases, SigmoidNetGetsLutAndStaysAccurate) {
  rng g{2};
  const nn::layer_spec specs[] = {{6, nn::activation::sigmoid},
                                  {1, nn::activation::sigmoid}};
  nn::mlp net{3, specs, g};
  const auto snap = codegen::generate_snapshot(net, "sig", 1);
  // Both layers use the same sigmoid table: one shared lut_0_values, and
  // an eval per layer.
  EXPECT_NE(snap.c_source.find("lut_0_values"), std::string::npos);
  EXPECT_EQ(snap.c_source.find("lut_1_values"), std::string::npos);
  EXPECT_NE(snap.c_source.find("lut_0_eval"), std::string::npos);
  EXPECT_NE(snap.c_source.find("lut_1_eval"), std::string::npos);
  rng xs{3};
  for (int i = 0; i < 10; ++i) {
    std::vector<double> x(3);
    for (auto& v : x) v = xs.uniform(-2, 2);
    EXPECT_NEAR(snap.program.infer_float(x)[0], net.forward(x)[0], 0.01);
  }
}

TEST(EdgeCases, WideShallowAndNarrowDeepNets) {
  rng g{4};
  const nn::layer_spec wide[] = {{128, nn::activation::relu},
                                 {1, nn::activation::linear}};
  const nn::layer_spec deep[] = {
      {4, nn::activation::tanh_act}, {4, nn::activation::tanh_act},
      {4, nn::activation::tanh_act}, {4, nn::activation::tanh_act},
      {1, nn::activation::linear}};
  for (const auto& specs :
       {std::span<const nn::layer_spec>{wide}, std::span<const nn::layer_spec>{deep}}) {
    nn::mlp net{5, specs, g};
    const auto q = quant::quantize(net);
    std::vector<double> x(5, 0.3);
    EXPECT_NEAR(q.infer_float(x)[0], net.forward(x)[0], 0.05);
  }
}

TEST(EdgeCases, SerializationSurvivesExtremeWeights) {
  rng g{5};
  const nn::layer_spec specs[] = {{2, nn::activation::linear}};
  nn::mlp net{2, specs, g};
  auto params = net.parameters();
  params[0] = 1e-300;
  params[1] = -1e300;
  params[2] = 3.14159265358979323846;
  net.set_parameters(params);
  const auto loaded = nn::load_mlp_from_string(nn::save_mlp_to_string(net));
  EXPECT_EQ(loaded.parameters()[0], params[0]);
  EXPECT_EQ(loaded.parameters()[1], params[1]);
  EXPECT_EQ(loaded.parameters()[2], params[2]);
}

TEST(EdgeCases, QuantizerSaturatesInsteadOfOverflowing) {
  // Huge weights + huge inputs must clamp, not wrap.
  rng g{6};
  const nn::layer_spec specs[] = {{1, nn::activation::linear}};
  nn::mlp net{1, specs, g};
  auto params = net.parameters();
  params[0] = 1e6;  // weight
  params[1] = 0.0;
  net.set_parameters(params);
  const auto q = quant::quantize(net);
  const fp::s64 huge[] = {fp::s64_max / 4};
  const auto y = q.infer(huge);
  EXPECT_EQ(y.size(), 1u);  // no UB; result is saturated/clamped
}

// ----------------------------------------------------- channels under load --

TEST(EdgeCases, ChannelRepliesPreserveFifoOrderUnderCongestion) {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  kernelsim::crossspace_channel ch{s, cpu, costs,
                                   kernelsim::channel_kind::netlink};
  std::vector<int> completion_order;
  for (int i = 0; i < 5; ++i) {
    ch.round_trip(64, 8, 1e-6, kernelsim::task_category::user_nn,
                  [&, i](double) { completion_order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(completion_order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EdgeCases, SpinlockSerializesBurstArrivals) {
  sim::simulation s;
  kernelsim::spinlock lock{s};
  // Three acquisitions at the same instant: waits accumulate linearly.
  EXPECT_DOUBLE_EQ(lock.acquire(1e-6), 0.0);
  EXPECT_DOUBLE_EQ(lock.acquire(1e-6), 1e-6);
  EXPECT_NEAR(lock.acquire(1e-6), 2e-6, 1e-12);
  EXPECT_EQ(lock.contended_acquisitions(), 2u);
}

// ------------------------------------------------- collector corner cases --

TEST(EdgeCases, CollectorStopHaltsDelivery) {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  kernelsim::crossspace_channel ch{s, cpu, costs,
                                   kernelsim::channel_kind::netlink};
  core::batch_collector bc{s, ch, {}};
  int batches = 0;
  bc.set_consumer([&](std::vector<core::train_sample>) { ++batches; });
  bc.start();
  bc.collect({{1.0}, {}, 0.0});
  s.run_until(0.15);
  EXPECT_EQ(batches, 1);
  bc.stop();
  bc.collect({{2.0}, {}, 0.0});
  s.run_until(0.5);
  EXPECT_EQ(batches, 1);  // no delivery after stop
  EXPECT_EQ(bc.pending(), 1u);
}

TEST(EdgeCases, CollectorIntervalChangeTakesEffect) {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  kernelsim::crossspace_channel ch{s, cpu, costs,
                                   kernelsim::channel_kind::netlink};
  core::batch_collector bc{s, ch, {}};
  bc.set_interval(0.5);
  EXPECT_DOUBLE_EQ(bc.interval(), 0.5);
  EXPECT_THROW(bc.set_interval(0.0), std::invalid_argument);
}

TEST(EdgeCases, NegativeWeightsRenderParenthesized) {
  // The generated C must parenthesize negative literals so expressions like
  // "* (-16)" stay syntactically valid (paper Listing 2 does the same).
  rng g{9};
  const nn::layer_spec specs[] = {{1, nn::activation::linear}};
  nn::mlp net{1, specs, g};
  auto params = net.parameters();
  params[0] = -0.5;
  params[1] = -0.25;
  net.set_parameters(params);
  const auto snap = codegen::generate_snapshot(net, "neg", 1);
  EXPECT_NE(snap.c_source.find("(-"), std::string::npos);
  if (codegen::compiler_available()) {
    EXPECT_NO_THROW(codegen::compiled_snapshot::compile(snap.c_source));
  }
}

}  // namespace
