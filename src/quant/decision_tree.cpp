#include "quant/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace lf::quant {
namespace {

struct sample_set {
  // Column-major inputs: inputs[f][i] is feature f of sample i.
  std::vector<std::vector<double>> inputs;
  // outputs[o][i].
  std::vector<std::vector<double>> outputs;
  std::size_t count = 0;
};

/// Sum of squared errors of `indices` around their per-output means.
double subset_sse(const sample_set& data, std::span<const std::size_t> indices) {
  double sse = 0.0;
  for (const auto& out : data.outputs) {
    double mean = 0.0;
    for (const auto i : indices) mean += out[i];
    mean /= static_cast<double>(indices.size());
    for (const auto i : indices) {
      const double d = out[i] - mean;
      sse += d * d;
    }
  }
  return sse;
}

}  // namespace

decision_tree_snapshot decision_tree_snapshot::distill(
    const nn::mlp& teacher, const dt_config& config) {
  if (config.max_depth == 0 || config.training_samples < 4 ||
      config.io_scale <= 0) {
    throw std::invalid_argument{"decision_tree: bad config"};
  }
  decision_tree_snapshot tree;
  tree.input_size_ = teacher.input_size();
  tree.output_size_ = teacher.output_size();
  tree.io_scale_ = config.io_scale;

  // Sample the teacher over the input box.
  rng gen{config.seed};
  sample_set data;
  data.count = config.training_samples;
  data.inputs.assign(tree.input_size_, std::vector<double>(data.count));
  data.outputs.assign(tree.output_size_, std::vector<double>(data.count));
  std::vector<double> x(tree.input_size_);
  for (std::size_t i = 0; i < data.count; ++i) {
    for (std::size_t f = 0; f < tree.input_size_; ++f) {
      x[f] = gen.uniform(config.input_low, config.input_high);
      data.inputs[f][i] = x[f];
    }
    const auto y = teacher.forward(x);
    for (std::size_t o = 0; o < tree.output_size_; ++o) {
      data.outputs[o][i] = y[o];
    }
  }

  const auto scale = static_cast<double>(config.io_scale);

  // Recursive CART construction (explicit stack of work items).
  struct work_item {
    std::vector<std::size_t> indices;
    std::size_t depth;
    int node_index;
  };
  std::vector<work_item> stack;
  std::vector<std::size_t> all(data.count);
  std::iota(all.begin(), all.end(), 0);
  tree.nodes_.emplace_back();
  stack.push_back({std::move(all), 0, 0});

  auto make_leaf = [&](const work_item& item) {
    auto& n = tree.nodes_[static_cast<std::size_t>(item.node_index)];
    n.feature = -1;
    n.leaf_value_q.resize(tree.output_size_);
    for (std::size_t o = 0; o < tree.output_size_; ++o) {
      double mean = 0.0;
      for (const auto i : item.indices) mean += data.outputs[o][i];
      mean /= static_cast<double>(item.indices.size());
      n.leaf_value_q[o] = fp::sat_quantize(mean * scale);
    }
  };

  while (!stack.empty()) {
    work_item item = std::move(stack.back());
    stack.pop_back();

    if (item.depth >= config.max_depth ||
        item.indices.size() < 2 * config.min_samples_leaf) {
      make_leaf(item);
      continue;
    }
    const double parent_sse = subset_sse(data, item.indices);
    if (parent_sse < 1e-12) {
      make_leaf(item);
      continue;
    }

    // Best (feature, threshold) over a quantile grid of candidates.
    double best_gain = 0.0;
    std::size_t best_feature = 0;
    double best_threshold = 0.0;
    std::vector<std::size_t> best_left, best_right;
    std::vector<double> values(item.indices.size());
    for (std::size_t f = 0; f < tree.input_size_; ++f) {
      for (std::size_t k = 0; k < item.indices.size(); ++k) {
        values[k] = data.inputs[f][item.indices[k]];
      }
      std::vector<double> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      for (std::size_t c = 1; c <= config.candidate_thresholds; ++c) {
        const double q = static_cast<double>(c) /
                         static_cast<double>(config.candidate_thresholds + 1);
        const double threshold =
            sorted[static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1))];
        std::vector<std::size_t> left, right;
        for (std::size_t k = 0; k < item.indices.size(); ++k) {
          (values[k] <= threshold ? left : right).push_back(item.indices[k]);
        }
        if (left.size() < config.min_samples_leaf ||
            right.size() < config.min_samples_leaf) {
          continue;
        }
        const double gain =
            parent_sse - subset_sse(data, left) - subset_sse(data, right);
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = f;
          best_threshold = threshold;
          best_left = std::move(left);
          best_right = std::move(right);
        }
      }
    }
    if (best_gain <= 1e-12) {
      make_leaf(item);
      continue;
    }
    const int left_index = static_cast<int>(tree.nodes_.size());
    tree.nodes_.emplace_back();
    const int right_index = static_cast<int>(tree.nodes_.size());
    tree.nodes_.emplace_back();
    auto& n = tree.nodes_[static_cast<std::size_t>(item.node_index)];
    n.feature = static_cast<int>(best_feature);
    n.threshold_q = fp::sat_quantize(best_threshold * scale);
    n.left = left_index;
    n.right = right_index;
    stack.push_back({std::move(best_left), item.depth + 1, left_index});
    stack.push_back({std::move(best_right), item.depth + 1, right_index});
  }
  return tree;
}

std::vector<s64> decision_tree_snapshot::infer(
    std::span<const s64> input_q) const {
  if (input_q.size() != input_size_) {
    throw std::invalid_argument{"decision_tree::infer input size mismatch"};
  }
  const node* n = &nodes_[0];
  while (n->feature >= 0) {
    n = input_q[static_cast<std::size_t>(n->feature)] <= n->threshold_q
            ? &nodes_[static_cast<std::size_t>(n->left)]
            : &nodes_[static_cast<std::size_t>(n->right)];
  }
  return n->leaf_value_q;
}

std::vector<double> decision_tree_snapshot::infer_float(
    std::span<const double> input) const {
  std::vector<s64> q(input.size());
  const auto scale = static_cast<double>(io_scale_);
  for (std::size_t i = 0; i < input.size(); ++i) {
    // Saturating, so +inf takes every `>` branch and -inf every `<=` one
    // (llround gave INT64_MIN for both); NaN reads as 0.
    q[i] = fp::sat_quantize(input[i] * scale);
  }
  const auto out_q = infer(q);
  std::vector<double> out(out_q.size());
  for (std::size_t i = 0; i < out_q.size(); ++i) {
    out[i] = static_cast<double>(out_q[i]) / scale;
  }
  return out;
}

std::size_t decision_tree_snapshot::leaf_count() const noexcept {
  std::size_t n = 0;
  for (const auto& node : nodes_) n += (node.feature < 0);
  return n;
}

std::size_t decision_tree_snapshot::depth() const noexcept {
  // Breadth-first walk computing depth.
  std::vector<std::pair<int, std::size_t>> queue{{0, 0}};
  std::size_t max_depth = 0;
  while (!queue.empty()) {
    const auto [idx, d] = queue.back();
    queue.pop_back();
    max_depth = std::max(max_depth, d);
    const auto& n = nodes_[static_cast<std::size_t>(idx)];
    if (n.feature >= 0) {
      queue.push_back({n.left, d + 1});
      queue.push_back({n.right, d + 1});
    }
  }
  return max_depth;
}

double decision_tree_snapshot::mean_abs_error(const nn::mlp& teacher,
                                              std::size_t probes,
                                              std::uint64_t seed) const {
  rng gen{seed};
  double total = 0.0;
  std::size_t n = 0;
  std::vector<double> x(input_size_);
  for (std::size_t i = 0; i < probes; ++i) {
    for (auto& v : x) v = gen.uniform(-1.0, 1.0);
    const auto y = teacher.forward(x);
    const auto yt = infer_float(x);
    for (std::size_t o = 0; o < output_size_; ++o) {
      total += std::abs(y[o] - yt[o]);
      ++n;
    }
  }
  return total / static_cast<double>(n);
}

}  // namespace lf::quant
