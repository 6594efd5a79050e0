// Tests for the decision-tree snapshot (the §2.3 lightweight comparator).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "quant/decision_tree.hpp"
#include "quant/quantizer.hpp"
#include "util/rng.hpp"

namespace {

using namespace lf;
using namespace lf::quant;

dt_config small_config() {
  dt_config cfg;
  cfg.max_depth = 8;
  cfg.training_samples = 2000;
  cfg.seed = 7;
  return cfg;
}

TEST(DecisionTree, DistillsSimpleFunctionAccurately) {
  // Teacher: a 1-hidden-layer net computing a smooth function of 2 inputs.
  rng g{3};
  const nn::layer_spec specs[] = {{8, nn::activation::tanh_act},
                                  {1, nn::activation::tanh_act}};
  nn::mlp teacher{2, specs, g};
  const auto tree = decision_tree_snapshot::distill(teacher, small_config());
  EXPECT_GT(tree.node_count(), 3u);
  EXPECT_LE(tree.depth(), 8u);
  const double err = tree.mean_abs_error(teacher, 500, 99);
  EXPECT_LT(err, 0.08);  // tanh outputs span ~[-1,1]
}

TEST(DecisionTree, IntegerAndFloatPathsAgree) {
  rng g{4};
  const auto teacher = nn::make_ffnn_flow_size_net(g);
  const auto tree = decision_tree_snapshot::distill(teacher, small_config());
  rng xs{5};
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> x(teacher.input_size());
    std::vector<fp::s64> xq(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = xs.uniform(-1, 1);
      xq[i] = static_cast<fp::s64>(std::llround(x[i] * 1000.0));
    }
    const auto direct = tree.infer(xq);
    const auto via_float = tree.infer_float(x);
    ASSERT_EQ(direct.size(), via_float.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(direct[i],
                static_cast<fp::s64>(std::llround(via_float[i] * 1000.0)));
    }
  }
}

TEST(DecisionTree, DeeperTreesFitBetter) {
  rng g{6};
  const auto teacher = nn::make_aurora_net(g);
  auto shallow_cfg = small_config();
  shallow_cfg.max_depth = 2;
  auto deep_cfg = small_config();
  deep_cfg.max_depth = 12;
  deep_cfg.min_samples_leaf = 4;
  const auto shallow = decision_tree_snapshot::distill(teacher, shallow_cfg);
  const auto deep = decision_tree_snapshot::distill(teacher, deep_cfg);
  EXPECT_GT(deep.node_count(), shallow.node_count());
  EXPECT_LE(deep.mean_abs_error(teacher, 300, 42),
            shallow.mean_abs_error(teacher, 300, 42));
}

TEST(DecisionTree, QuantizedMlpIsMoreFaithfulThanTree) {
  // The design tradeoff the paper leans on: the integer-quantized NN tracks
  // the teacher far more closely than a compact distilled tree on a
  // high-dimensional input (Aurora: 30 inputs) — and unlike the tree, the
  // NN snapshot has a slow path to keep it current.
  rng g{8};
  const auto teacher = nn::make_aurora_net(g);
  const auto tree = decision_tree_snapshot::distill(teacher, small_config());
  const auto q = quantize(teacher);
  rng xs{9};
  double tree_err = 0.0;
  double q_err = 0.0;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x(teacher.input_size());
    for (auto& v : x) v = xs.uniform(-1, 1);
    const auto y = teacher.forward(x);
    tree_err += std::abs(tree.infer_float(x)[0] - y[0]);
    q_err += std::abs(q.infer_float(x)[0] - y[0]);
  }
  EXPECT_LT(q_err, tree_err * 0.2);
}

TEST(DecisionTree, LeafAndNodeCountsConsistent) {
  rng g{10};
  const auto teacher = nn::make_lb_mlp_net(g, 2);
  const auto tree = decision_tree_snapshot::distill(teacher, small_config());
  // A binary tree has exactly internal + leaves nodes, leaves = internal+1.
  EXPECT_EQ(tree.leaf_count() * 2 - 1, tree.node_count());
}

TEST(DecisionTree, RejectsBadConfig) {
  rng g{11};
  const auto teacher = nn::make_ffnn_flow_size_net(g);
  dt_config bad;
  bad.max_depth = 0;
  EXPECT_THROW(decision_tree_snapshot::distill(teacher, bad),
               std::invalid_argument);
  dt_config bad2;
  bad2.training_samples = 2;
  EXPECT_THROW(decision_tree_snapshot::distill(teacher, bad2),
               std::invalid_argument);
}

TEST(DecisionTree, InferRejectsWrongInputSize) {
  rng g{12};
  const auto teacher = nn::make_ffnn_flow_size_net(g);
  const auto tree = decision_tree_snapshot::distill(teacher, small_config());
  const fp::s64 bad[] = {1, 2, 3};
  EXPECT_THROW((void)tree.infer(bad), std::invalid_argument);
}

TEST(DecisionTree, InfiniteFloatInputsTakeTheOuterBranches) {
  // infer_float saturates: +inf quantizes to s64_max, above every
  // threshold, so it takes each split's `>` branch, -inf (s64_min) each
  // `<=` branch, and NaN reads 0.  llround gave INT64_MIN for all three, so
  // +inf went `<=`.  For some feature the two sides reach different leaves,
  // which is what tells the branches apart.
  rng g{13};
  const auto teacher = nn::make_ffnn_flow_size_net(g);
  const auto tree = decision_tree_snapshot::distill(teacher, small_config());
  const auto dequantized = [](const std::vector<fp::s64>& q) {
    std::vector<double> v;
    for (const fp::s64 x : q) v.push_back(static_cast<double>(x) / 1000.0);
    return v;
  };
  const double inf = std::numeric_limits<double>::infinity();
  std::size_t split = 0;
  for (std::size_t f = 0; f < tree.input_size(); ++f) {
    std::vector<double> x(tree.input_size(), 0.0);
    std::vector<fp::s64> xq(tree.input_size(), 0);
    x[f] = inf;
    xq[f] = fp::s64_max;
    const auto above = tree.infer(xq);
    EXPECT_EQ(tree.infer_float(x), dequantized(above)) << "feature " << f;
    x[f] = -inf;
    xq[f] = fp::s64_min;
    const auto below = tree.infer(xq);
    EXPECT_EQ(tree.infer_float(x), dequantized(below)) << "feature " << f;
    x[f] = std::nan("");
    xq[f] = 0;
    EXPECT_EQ(tree.infer_float(x), dequantized(tree.infer(xq)))
        << "feature " << f;
    split += above != below;
  }
  EXPECT_GT(split, 0u);
}

}  // namespace
