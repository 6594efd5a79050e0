// Unit tests for src/nn: activations, dense layers, MLP backprop (checked
// against finite differences), losses, optimizers, trainer, serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <sstream>

#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "util/rng.hpp"

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

// The byte reference for save_mlp_to_string: the format written through an
// ostream at setprecision(17).
std::string stream_reference(const mlp& model) {
  std::ostringstream os;
  os << "liteflow-mlp v1\n";
  os << "input " << model.input_size() << "\n";
  os << "layers " << model.layer_count() << "\n";
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    os << "layer " << model.layer(i).output_size() << " "
       << to_string(model.layer(i).act()) << "\n";
  }
  const auto params = model.parameters();
  os << "params " << params.size() << "\n";
  os << std::setprecision(17);
  for (std::size_t i = 0; i < params.size(); ++i) {
    os << params[i] << ((i + 1) % 8 == 0 ? "\n" : " ");
  }
  os << "\n";
  return os.str();
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

TEST(Serialize, TextMatchesStreamReferenceAndReloadsBitIdentical) {
  const double edge[] = {0.0,     -0.0,     4.94e-324, DBL_MIN, DBL_MAX,
                         -DBL_MAX, 1e300,   -1e300,    1e-300,  -1e-300,
                         0.1,     1.0,      -3.0,      42.0,    1e17,
                         123456789012345678.0};
  for (int kind = 0; kind < 4; ++kind) {
    rng g{static_cast<std::uint64_t>(40 + kind)};
    mlp net = kind == 0   ? make_aurora_net(g)
              : kind == 1 ? make_mocc_net(g)
              : kind == 2 ? make_ffnn_flow_size_net(g)
                          : make_lb_mlp_net(g, 4);
    auto params = net.parameters();
    ASSERT_GT(params.size(), std::size(edge));
    std::copy(std::begin(edge), std::end(edge), params.begin());
    for (std::size_t i = std::size(edge); i < params.size(); i += 3) {
      params[i] *= std::pow(10.0, g.uniform_int(-30, 30));
    }
    net.set_parameters(params);
    const auto text = save_mlp_to_string(net);
    EXPECT_EQ(text, stream_reference(net)) << "net " << kind;
    expect_same_bits(load_mlp_from_string(text).parameters(), params);
  }
}

// A one-neuron model whose two parameters are written as `values`.
std::string one_neuron_text(const std::string& values) {
  return "liteflow-mlp v1\ninput 1\nlayers 1\nlayer 1 linear\nparams 2\n" +
         values + "\n";
}

TEST(Serialize, ParsesParametersExactlyAsTheStreamDid) {
  // `istringstream >> double` was the loader's parser.  Each token must
  // load to the stream's bits where the stream read it and throw where it
  // failed, both first (checked against the table) and last in the list.
  const struct {
    std::string token;
    bool loads;
  } table[] = {
      {"nan", false},     {"inf", false},      {"-inf", false},
      {"1e400", false},   {"-1e400", false},   {"abc", false},
      {"0x10", false},    {"1e", false},       {"1e+", false},
      {".", false},       {"+", false},        {"+-1", false},
      {"+1.5", true},     {".5", true},        {"-.5", true},
      {"1.", true},       {"00012", true},     {"1E2", true},
      {"-1e+2", true},    {"4.94e-324", true}, {"1e-400", true},
      {"-1e-400", true},  {"0.0000001e-320", true},
      {"1.5-2.5", true},  // the stream read two values from this token
      {"0." + std::string(399, '0') + "1", true},  // underflows to zero
      {"1" + std::string(400, '0'), false},        // overflows
  };
  for (const auto& row : table) {
    for (const bool first : {true, false}) {
      const std::string& token = row.token;
      const std::string values = first ? token + " 0" : "0 " + token;
      std::istringstream is{values};
      double a = 0;
      double b = 0;
      const bool stream_ok = static_cast<bool>(is >> a >> b);
      if (first) {
        EXPECT_EQ(stream_ok, row.loads) << token;
      }
      if (stream_ok) {
        expect_same_bits(load_mlp_from_string(one_neuron_text(values))
                             .parameters(),
                         {a, b});
      } else {
        EXPECT_THROW(load_mlp_from_string(one_neuron_text(values)),
                     std::runtime_error)
            << values;
      }
    }
  }
}

TEST(Serialize, MalformedHeadersThrowRuntimeErrorBeforeAllocating) {
  // Each of these once escaped as another exception type: the loader built
  // the model from the header's sizes before checking them.
  const char* texts[] = {
      // invalid_argument from the activation parser
      "liteflow-mlp v1\ninput 1\nlayers 1\nlayer 1 bogus\nparams 2\n0 0\n",
      // bad_alloc reserving the claimed layer count
      "liteflow-mlp v1\ninput 1\nlayers 1000000000000000\nlayer 1 relu\n"
      "params 2\n0 0\n",
      // length_error: 1.6e19 parameters
      "liteflow-mlp v1\ninput 4000000000\nlayers 1\nlayer 4000000000 relu\n"
      "params 16000000004000000000\n0 0\n",
      // bad_alloc: 32 GB of weights for a text that holds two values
      "liteflow-mlp v1\ninput 4000000000\nlayers 1\nlayer 1 relu\n"
      "params 4000000001\n0 0\n",
      // the parameter count overflows size_t
      "liteflow-mlp v1\ninput 4294967296\nlayers 2\nlayer 4294967296 relu\n"
      "layer 1 linear\nparams 0\n",
  };
  for (const char* text : texts) {
    EXPECT_THROW(load_mlp_from_string(text), std::runtime_error) << text;
  }
}

}  // namespace
