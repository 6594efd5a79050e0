// Unit tests for src/nn: activations, dense layers, MLP backprop (checked
// against finite differences), losses, optimizers, trainer, serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <new>

#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "util/rng.hpp"

// This thread's operator new calls, counted so a test can check that the
// model loader throws before it allocates.
namespace {
thread_local std::size_t t_news = 0;
}  // namespace

// Out of line, or GCC sees free() called on what new-expressions returned.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++t_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace lf;
using namespace lf::nn;

// ------------------------------------------------------------ activation --

class ActivationGradCheck
    : public ::testing::TestWithParam<std::tuple<activation, double>> {};

TEST_P(ActivationGradCheck, MatchesFiniteDifference) {
  const auto [act, x] = GetParam();
  const double h = 1e-6;
  const double fd = (activate(act, x + h) - activate(act, x - h)) / (2 * h);
  EXPECT_NEAR(activate_grad(act, x), fd, 1e-4)
      << to_string(act) << " at x=" << x;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ActivationGradCheck,
    ::testing::Combine(::testing::Values(activation::linear, activation::relu,
                                         activation::tanh_act,
                                         activation::sigmoid),
                       // Avoid relu's kink at exactly 0.
                       ::testing::Values(-2.0, -0.5, 0.3, 1.7, 4.0)));

TEST(Activation, KnownValues) {
  EXPECT_DOUBLE_EQ(activate(activation::linear, 3.5), 3.5);
  EXPECT_DOUBLE_EQ(activate(activation::relu, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(activate(activation::relu, 2.0), 2.0);
  EXPECT_NEAR(activate(activation::tanh_act, 0.0), 0.0, 1e-12);
  EXPECT_NEAR(activate(activation::sigmoid, 0.0), 0.5, 1e-12);
}

TEST(Activation, StringRoundTrip) {
  for (const auto a : {activation::linear, activation::relu,
                       activation::tanh_act, activation::sigmoid}) {
    EXPECT_EQ(activation_from_string(to_string(a)), a);
  }
  EXPECT_THROW(activation_from_string("gelu"), std::invalid_argument);
}

// ----------------------------------------------------------------- dense --

TEST(DenseLayer, ForwardComputesAffine) {
  dense_layer layer{2, 1, activation::linear};
  layer.weights()[0] = 2.0;
  layer.weights()[1] = -3.0;
  layer.biases()[0] = 0.5;
  const double x[] = {1.0, 2.0};
  double y[1];
  layer.forward(x, y, {});
  EXPECT_DOUBLE_EQ(y[0], 2.0 - 6.0 + 0.5);
}

TEST(DenseLayer, ForwardAppliesActivation) {
  dense_layer layer{1, 1, activation::relu};
  layer.weights()[0] = 1.0;
  layer.biases()[0] = -5.0;
  const double x[] = {2.0};
  double y[1];
  layer.forward(x, y, {});
  EXPECT_DOUBLE_EQ(y[0], 0.0);
}

TEST(DenseLayer, RejectsSizeMismatch) {
  dense_layer layer{2, 3, activation::linear};
  const double x[] = {1.0};
  double y[3];
  EXPECT_THROW(layer.forward(x, y, {}), std::invalid_argument);
}

TEST(DenseLayer, XavierInitBounded) {
  rng g{5};
  dense_layer layer{64, 32, activation::tanh_act, g};
  const double limit = std::sqrt(6.0 / (64 + 32));
  for (const double w : layer.weights()) {
    EXPECT_LE(std::abs(w), limit + 1e-12);
  }
  for (const double b : layer.biases()) EXPECT_DOUBLE_EQ(b, 0.0);
}

// ------------------------------------------------------------------- mlp --

TEST(Mlp, ForwardShapeAndDeterminism) {
  rng g{3};
  auto net = make_aurora_net(g);
  EXPECT_EQ(net.input_size(), 30u);
  EXPECT_EQ(net.output_size(), 1u);
  std::vector<double> x(30, 0.1);
  const auto y1 = net.forward(x);
  const auto y2 = net.forward(x);
  ASSERT_EQ(y1.size(), 1u);
  EXPECT_DOUBLE_EQ(y1[0], y2[0]);
  EXPECT_LE(std::abs(y1[0]), 1.0);  // tanh output head
}

TEST(Mlp, ParameterRoundTrip) {
  rng g{4};
  auto net = make_ffnn_flow_size_net(g);
  auto params = net.parameters();
  EXPECT_EQ(params.size(), net.parameter_count());
  params[0] = 123.0;
  net.set_parameters(params);
  EXPECT_DOUBLE_EQ(net.parameters()[0], 123.0);
}

TEST(Mlp, GradientMatchesFiniteDifference) {
  rng g{6};
  const layer_spec specs[] = {{4, activation::tanh_act},
                              {3, activation::relu},
                              {2, activation::linear}};
  mlp net{3, specs, g};
  const std::vector<double> x{0.3, -0.7, 1.1};
  const std::vector<double> grad_out{1.0, -0.5};  // arbitrary dL/dy

  std::vector<double> grad(net.parameter_count(), 0.0);
  net.accumulate_gradient(x, grad_out, grad);

  // Finite-difference check on a scattering of parameters.
  auto params = net.parameters();
  const double h = 1e-6;
  auto loss_at = [&](const std::vector<double>& p) {
    mlp m{3, specs};
    m.set_parameters(p);
    const auto y = m.forward(x);
    return y[0] * grad_out[0] + y[1] * grad_out[1];
  };
  for (std::size_t i = 0; i < params.size(); i += 7) {
    auto p = params;
    p[i] += h;
    const double up = loss_at(p);
    p[i] -= 2 * h;
    const double dn = loss_at(p);
    const double fd = (up - dn) / (2 * h);
    EXPECT_NEAR(grad[i], fd, 1e-4) << "param " << i;
  }
}

TEST(Mlp, SameStructureDetectsMismatch) {
  rng g{8};
  auto a = make_aurora_net(g);
  auto b = make_aurora_net(g);
  auto c = make_mocc_net(g);
  EXPECT_TRUE(a.same_structure(b));
  EXPECT_FALSE(a.same_structure(c));
  EXPECT_THROW((void)a.parameter_distance(c), std::invalid_argument);
}

TEST(Mlp, ParameterDistanceZeroForCopies) {
  rng g{8};
  auto a = make_aurora_net(g);
  auto b = a;
  EXPECT_DOUBLE_EQ(a.parameter_distance(b), 0.0);
  auto p = b.parameters();
  p[0] += 1.0;
  b.set_parameters(p);
  EXPECT_GT(a.parameter_distance(b), 0.0);
}

TEST(Mlp, DescribeMentionsShapes) {
  rng g{8};
  const auto d = make_aurora_net(g).describe();
  EXPECT_NE(d.find("30"), std::string::npos);
  EXPECT_NE(d.find("32(tanh)"), std::string::npos);
}

// ------------------------------------------------------------------ loss --

TEST(Loss, MseValueAndGradient) {
  const double pred[] = {1.0, 2.0};
  const double target[] = {0.0, 4.0};
  EXPECT_DOUBLE_EQ(loss_value(loss_kind::mse, pred, target), (1.0 + 4.0) / 2);
  const auto g = loss_gradient(loss_kind::mse, pred, target);
  EXPECT_DOUBLE_EQ(g[0], 2.0 * 1.0 / 2);
  EXPECT_DOUBLE_EQ(g[1], 2.0 * -2.0 / 2);
}

TEST(Loss, SmoothL1LinearTail) {
  const double pred[] = {10.0};
  const double target[] = {0.0};
  EXPECT_DOUBLE_EQ(loss_value(loss_kind::smooth_l1, pred, target), 9.5);
  EXPECT_DOUBLE_EQ(loss_gradient(loss_kind::smooth_l1, pred, target)[0], 1.0);
}

TEST(Loss, SmoothL1QuadraticCore) {
  const double pred[] = {0.5};
  const double target[] = {0.0};
  EXPECT_DOUBLE_EQ(loss_value(loss_kind::smooth_l1, pred, target), 0.125);
  EXPECT_DOUBLE_EQ(loss_gradient(loss_kind::smooth_l1, pred, target)[0], 0.5);
}

// ------------------------------------------------------------- optimizer --

TEST(Optimizer, SgdStepsDownhill) {
  sgd opt{0.1};
  std::vector<double> params{1.0};
  const std::vector<double> grads{2.0};
  opt.step(params, grads);
  EXPECT_DOUBLE_EQ(params[0], 0.8);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  adam opt{0.1};
  std::vector<double> params{5.0, -3.0};
  for (int i = 0; i < 500; ++i) {
    const std::vector<double> grads{2.0 * params[0], 2.0 * params[1]};
    opt.step(params, grads);
  }
  EXPECT_NEAR(params[0], 0.0, 1e-3);
  EXPECT_NEAR(params[1], 0.0, 1e-3);
}

TEST(Optimizer, MomentumConvergesOnQuadratic) {
  momentum_sgd opt{0.05, 0.9};
  std::vector<double> params{4.0};
  for (int i = 0; i < 300; ++i) {
    const std::vector<double> grads{2.0 * params[0]};
    opt.step(params, grads);
  }
  EXPECT_NEAR(params[0], 0.0, 1e-3);
}

TEST(Optimizer, GradientClipping) {
  std::vector<double> g{3.0, 4.0};  // norm 5
  const double norm = clip_gradient_norm(g, 1.0);
  EXPECT_DOUBLE_EQ(norm, 5.0);
  EXPECT_NEAR(std::hypot(g[0], g[1]), 1.0, 1e-12);
  // Under the cap: untouched.
  std::vector<double> g2{0.3, 0.4};
  clip_gradient_norm(g2, 1.0);
  EXPECT_DOUBLE_EQ(g2[0], 0.3);
}

TEST(Optimizer, RejectsSizeMismatch) {
  sgd opt{0.1};
  std::vector<double> params{1.0, 2.0};
  const std::vector<double> grads{1.0};
  EXPECT_THROW(opt.step(params, grads), std::invalid_argument);
}

// --------------------------------------------------------------- trainer --

TEST(Trainer, LearnsLinearFunction) {
  rng g{21};
  const layer_spec specs[] = {{8, activation::tanh_act},
                              {1, activation::linear}};
  mlp net{2, specs, g};
  supervised_trainer trainer{net, loss_kind::mse, std::make_unique<adam>(0.01)};

  // Target: y = 2*x0 - x1.
  std::vector<training_sample> batch;
  for (int i = 0; i < 64; ++i) {
    const double x0 = g.uniform(-1, 1);
    const double x1 = g.uniform(-1, 1);
    batch.push_back({{x0, x1}, {2 * x0 - x1}});
  }
  const double before = trainer.evaluate(batch);
  for (int epoch = 0; epoch < 400; ++epoch) trainer.train_batch(batch);
  const double after = trainer.evaluate(batch);
  EXPECT_LT(after, before * 0.05);
  EXPECT_LT(after, 0.01);
}

TEST(Trainer, EmptyBatchIsNoop) {
  rng g{22};
  auto net = make_ffnn_flow_size_net(g);
  const auto params = net.parameters();
  supervised_trainer trainer{net, loss_kind::mse, std::make_unique<sgd>(0.1)};
  const auto report = trainer.train_batch({});
  EXPECT_DOUBLE_EQ(report.mean_loss, 0.0);
  EXPECT_EQ(net.parameters(), params);
}

// ------------------------------------------------------------- serialize --

TEST(Serialize, RoundTripPreservesOutputs) {
  rng g{33};
  auto net = make_mocc_net(g);
  const auto text = save_mlp_to_string(net);
  const auto loaded = load_mlp_from_string(text);
  EXPECT_TRUE(net.same_structure(loaded));
  std::vector<double> x(net.input_size());
  for (auto& v : x) v = g.uniform(-1, 1);
  const auto y0 = net.forward(x);
  const auto y1 = loaded.forward(x);
  for (std::size_t i = 0; i < y0.size(); ++i) EXPECT_DOUBLE_EQ(y0[i], y1[i]);
}

TEST(Serialize, RejectsCorruptHeader) {
  EXPECT_THROW(load_mlp_from_string("not-a-model"), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedParams) {
  rng g{34};
  auto net = make_ffnn_flow_size_net(g);
  auto text = save_mlp_to_string(net);
  text.resize(text.size() / 2);
  EXPECT_THROW(load_mlp_from_string(text), std::runtime_error);
}

// Appends `v` as eight little-endian bytes: the frozen layout's word,
// encoded apart from the library.
void put_le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out += static_cast<char>((v >> (8 * i)) & 0xff);
}

// The magic, then `words`.
std::string frozen_words(std::initializer_list<std::uint64_t> words) {
  std::string out = "liteflow-mlp v2\n";
  for (const std::uint64_t w : words) put_le(out, w);
  return out;
}

std::uint64_t activation_code(activation a) {
  switch (a) {
    case activation::linear:
      return 0;
    case activation::relu:
      return 1;
    case activation::tanh_act:
      return 2;
    case activation::sigmoid:
      return 3;
  }
  return 99;
}

std::string reference_freeze(const mlp& model) {
  std::string out = frozen_words({model.input_size(), model.layer_count()});
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    put_le(out, model.layer(i).output_size());
    put_le(out, activation_code(model.layer(i).act()));
  }
  const auto params = model.parameters();
  put_le(out, params.size());
  for (const double v : params) put_le(out, std::bit_cast<std::uint64_t>(v));
  return out;
}

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "parameter " << i << ": " << got[i] << " vs " << want[i];
  }
}

// Paper net `kind` (Aurora, MOCC, FFNN, LB-MLP) whose first parameters are
// the edge values and whose others span 60 decades.
mlp paper_net_with_edges(int kind) {
  const double edge[] = {0.0,     -0.0,     4.94e-324, DBL_MIN, DBL_MAX,
                         -DBL_MAX, 1e300,   -1e300,    1e-300,  -1e-300,
                         0.1,     1.0,      -3.0,      42.0,    1e17,
                         123456789012345678.0};
  rng g{static_cast<std::uint64_t>(40 + kind)};
  mlp net = kind == 0   ? make_aurora_net(g)
            : kind == 1 ? make_mocc_net(g)
            : kind == 2 ? make_ffnn_flow_size_net(g)
                        : make_lb_mlp_net(g, 4);
  auto params = net.parameters();
  std::copy(std::begin(edge), std::end(edge), params.begin());
  for (std::size_t i = std::size(edge); i < params.size(); i += 3) {
    params[i] *= std::pow(10.0, g.uniform_int(-30, 30));
  }
  net.set_parameters(params);
  return net;
}

TEST(Serialize, RoundTripsPaperNetsBitIdentical) {
  for (int kind = 0; kind < 4; ++kind) {
    const mlp net = paper_net_with_edges(kind);
    const auto frozen = save_mlp_to_string(net);
    const mlp loaded = load_mlp_from_string(frozen);
    EXPECT_TRUE(net.same_structure(loaded)) << "net " << kind;
    expect_same_bits(loaded.parameters(), net.parameters());
    EXPECT_EQ(save_mlp_to_string(loaded), frozen) << "net " << kind;
  }
}

TEST(Serialize, MatchesAnIndependentLittleEndianEncoder) {
  for (int kind = 0; kind < 4; ++kind) {
    const mlp net = paper_net_with_edges(kind);
    EXPECT_EQ(save_mlp_to_string(net), reference_freeze(net)) << "net " << kind;
  }
  // The paper nets use no sigmoid: one net with every activation code.
  rng g{39};
  const layer_spec specs[] = {{3, activation::sigmoid},
                              {2, activation::tanh_act},
                              {2, activation::relu},
                              {1, activation::linear}};
  const mlp net{2, specs, g};
  const auto frozen = save_mlp_to_string(net);
  EXPECT_EQ(frozen, reference_freeze(net));
  EXPECT_TRUE(net.same_structure(load_mlp_from_string(frozen)));
}

TEST(Serialize, EveryProperPrefixAndAnAppendedByteThrow) {
  rng g{35};
  const auto frozen = save_mlp_to_string(make_ffnn_flow_size_net(g));
  for (std::size_t n = 0; n < frozen.size(); ++n) {
    EXPECT_THROW(load_mlp_from_string(frozen.substr(0, n)),
                 std::runtime_error)
        << n << " of " << frozen.size() << " bytes";
  }
  EXPECT_THROW(load_mlp_from_string(frozen + '\0'), std::runtime_error);
}

TEST(Serialize, NonFiniteParametersThrow) {
  rng g{36};
  const mlp net = make_ffnn_flow_size_net(g);
  const std::size_t count = net.parameter_count();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    for (const std::size_t at : {std::size_t{0}, count / 2, count - 1}) {
      auto params = net.parameters();
      params[at] = bad;
      mlp poisoned = net;
      poisoned.set_parameters(params);
      EXPECT_THROW(load_mlp_from_string(save_mlp_to_string(poisoned)),
                   std::runtime_error)
          << bad << " as parameter " << at;
    }
  }
}

TEST(Serialize, RejectsTheV1Text) {
  EXPECT_THROW(load_mlp_from_string("liteflow-mlp v1\ninput 1\nlayers 1\n"
                                    "layer 1 linear\nparams 2\n0.5 -0.25\n"),
               std::runtime_error);
}

// operator new calls on this thread while `fn` runs.
template <typename Fn>
std::size_t news_during(Fn&& fn) {
  const std::size_t before = t_news;
  fn();
  return t_news - before;
}

TEST(Serialize, MalformedHeadersThrowRuntimeErrorBeforeAllocating) {
  // A loader that sized anything from these headers before checking them
  // would throw something other than runtime_error, or allocate gigabytes.
  // The first five are the text format's old regressions, re-encoded.
  // Words after the parameter count are parameters: 0 is +0.0.
  const std::string headers[] = {
      // an activation code past the table
      frozen_words({1, 1, 1, 4, 2, 0, 0}),
      // a layer count no text can hold
      frozen_words({1, 1'000'000'000'000'000, 1, 1, 2, 0, 0}),
      // 1.6e19 parameters
      frozen_words({4'000'000'000, 1, 4'000'000'000, 1,
                    16'000'000'004'000'000'000ULL, 0, 0}),
      // 32 GB of weights for a text that holds two values
      frozen_words({4'000'000'000, 1, 1, 1, 4'000'000'001, 0, 0}),
      // the parameter count overflows size_t (a count of 0, no values)
      frozen_words({4'294'967'296, 2, 4'294'967'296, 1, 1, 0, 0}),
      // 2^63 * 2 weights + 2 biases wrap to the two values given
      frozen_words({std::uint64_t{1} << 63, 1, 2, 1, 2, 0, 0}),
  };
  // What throwing a runtime_error costs by itself: its message.
  const std::size_t one_error =
      news_during([] { const std::runtime_error e{"mlp load: message"}; });
  for (std::size_t i = 0; i < std::size(headers); ++i) {
    bool threw = false;
    const std::size_t news = news_during([&] {
      try {
        (void)load_mlp_from_string(headers[i]);
      } catch (const std::runtime_error&) {
        threw = true;
      }
    });
    EXPECT_TRUE(threw) << "header " << i;
    EXPECT_EQ(news, one_error) << "header " << i << " allocated before it threw";
  }
}

TEST(Serialize, RandomByteChangesThrowOrRefreezeToTheChangedBytes) {
  rng g{37};
  const auto frozen = save_mlp_to_string(make_aurora_net(g));
  int loads = 0;
  int throws = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    std::string bytes = frozen;
    const auto at = static_cast<std::size_t>(
        g.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[at] = static_cast<char>(static_cast<unsigned char>(bytes[at]) +
                                  g.uniform_int(1, 255));
    try {
      EXPECT_EQ(save_mlp_to_string(load_mlp_from_string(bytes)), bytes)
          << "byte " << at;
      ++loads;
    } catch (const std::runtime_error&) {
      ++throws;
    }
  }
  // Both outcomes happen: most bytes belong to parameters, and a change to
  // the header or to an exponent's top bits is refused.
  EXPECT_GT(loads, 0);
  EXPECT_GT(throws, 0);
}

}  // namespace
