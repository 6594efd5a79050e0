#include "quant/quantizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace lf::quant {
namespace {

/// The largest per-layer weight scale the quantizer picks.
constexpr s64 k_max_weight_scale = s64{1} << 20;

/// Largest power-of-two scale S such that |w_max| * S still leaves ample
/// headroom in the 64-bit MAC, capped by k_max_weight_scale.  Larger S =
/// finer weight resolution.
s64 choose_weight_scale(std::span<const double> weights) {
  double w_max = 0.0;
  for (const double w : weights) w_max = std::max(w_max, std::abs(w));
  if (w_max == 0.0) return k_max_weight_scale;
  // Keep |w_q| below 2^31: a program stores its weights as int32 (its
  // constructor refuses any other), and (w_q * x_q) stays far from s64
  // overflow even after summing thousands of terms.  Only weights of 2^31
  // and more, which no scale fits, reach quantize()'s clamp.
  s64 scale = 1;
  while (scale < k_max_weight_scale &&
         w_max * static_cast<double>(scale * 2) < 2147483647.0) {
    scale *= 2;
  }
  return scale;
}

}  // namespace

quantized_mlp quantize(const nn::mlp& model, const quantizer_config& config) {
  if (config.io_scale <= 0) {
    throw std::invalid_argument{"quantizer: io_scale must be positive"};
  }
  std::vector<qdense_layer> layers;
  layers.reserve(model.layer_count());
  const auto io_scale = static_cast<double>(config.io_scale);
  for (std::size_t li = 0; li < model.layer_count(); ++li) {
    const auto& fl = model.layer(li);
    qdense_layer ql;
    ql.input_size = fl.input_size();
    ql.output_size = fl.output_size();
    ql.act = fl.act();
    ql.weight_scale = choose_weight_scale(fl.weights());
    const auto w_scale = static_cast<double>(ql.weight_scale);
    // sat_quantize, not llround: NaN becomes 0 and out-of-range values
    // saturate, where llround returns an arbitrary (on x86-64, negative)
    // value for them.  Weights saturate into int32, biases into s64.
    ql.weights.reserve(fl.weights().size());
    for (const double w : fl.weights()) {
      ql.weights.push_back(std::clamp<s64>(fp::sat_quantize(w * w_scale),
                                           INT32_MIN, INT32_MAX));
    }
    ql.biases.reserve(fl.biases().size());
    for (const double b : fl.biases()) {
      // Bias participates in the MAC whose scale is weight_scale * io_scale.
      ql.biases.push_back(fp::sat_quantize(b * w_scale * io_scale));
    }
    // The process's shared table: built only when no live program holds
    // this (activation, entries, io_scale).
    if (ql.act == nn::activation::tanh_act ||
        ql.act == nn::activation::sigmoid) {
      ql.lut = lookup_table::for_activation(ql.act, config.lut_entries,
                                            config.io_scale);
    }
    layers.push_back(std::move(ql));
  }
  return quantized_mlp{model.input_size(), config.io_scale, std::move(layers)};
}

quantized_mlp quantize(const nn::mlp& model) {
  return quantize(model, quantizer_config{});
}

}  // namespace lf::quant
