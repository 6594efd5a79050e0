// The random quantized-MLP corpus shared by the property tests: the
// interpreter's fast paths (test_quant) and the compiled C (test_codegen)
// are both checked against quantized_mlp::infer on these programs.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "quant/lut.hpp"
#include "quant/quantized_mlp.hpp"
#include "util/rng.hpp"

namespace lf::test {

using quant::lookup_table;
using quant::qdense_layer;
using quant::quantized_mlp;

constexpr fp::s64 i32_min = std::numeric_limits<std::int32_t>::min();
constexpr fp::s64 i32_max = std::numeric_limits<std::int32_t>::max();

/// The input width and layers a random_qmlp is built from.
struct qmlp_layers {
  std::size_t input_size = 0;
  std::vector<qdense_layer> layers;
};

/// Build a random quantized MLP directly (not via the quantizer) so the
/// property tests also cover shapes/scales the quantizer never produces:
/// non-power-of-two weight scales, weights up to the int32 limits with
/// biases up to 2^61, which defeat the no-saturation proof, every
/// activation kind.  Widths reach 44, so the int32 kernel runs several
/// 16-output blocks, partial 8-output groups and padding lanes.  With
/// `edges`, some layers carry weights at the int32 limits (one step past
/// is a weight the constructor refuses), and some linear/relu hidden layers
/// get biases that put their outputs near +-2^31, where the next layer's
/// per-call operand scan flips between the int32 and the scalar kernel.
/// random_qmlp_layers returns the layers themselves; random_qmlp builds
/// the program from them, so both make the same draws from `g`.
inline qmlp_layers random_qmlp_layers(rng& g, bool extreme,
                                      bool edges = false) {
  const auto width = [&] {
    return static_cast<std::size_t>(g.bernoulli(0.5) ? g.uniform_int(1, 9)
                                                     : g.uniform_int(10, 44));
  };
  const auto n_layers = static_cast<std::size_t>(g.uniform_int(1, 4));
  std::size_t in = width();
  const std::size_t input_size = in;
  std::vector<qdense_layer> layers;
  for (std::size_t li = 0; li < n_layers; ++li) {
    qdense_layer l;
    l.input_size = in;
    l.output_size = width();
    l.weight_scale = g.bernoulli(0.7)
                         ? fp::s64{1} << g.uniform_int(0, 12)  // pow2 (typical)
                         : g.uniform_int(1, 5000);             // odd scales
    // Huge layers force the saturating path: at the input bound
    // 1000 * 2^20, a weight near 2^31 takes ~2^61 of the accumulator.
    const bool huge = extreme && g.bernoulli(0.3);
    const fp::s64 wmax = huge ? i32_max : l.weight_scale * 4;
    const fp::s64 bmax = huge ? fp::s64_max / 4 : l.weight_scale * 4;
    for (std::size_t i = 0; i < l.input_size * l.output_size; ++i) {
      l.weights.push_back(g.uniform_int(-wmax, wmax));
    }
    for (std::size_t i = 0; i < l.output_size; ++i) {
      l.biases.push_back(g.uniform_int(-bmax, bmax));
    }
    if (edges && g.bernoulli(0.5)) {
      // 1-3 weights at the int32 limits.
      const fp::s64 at[] = {i32_min, i32_max};
      for (int k = 0, planted = static_cast<int>(g.uniform_int(1, 3));
           k < planted; ++k) {
        const auto idx = static_cast<std::size_t>(g.uniform_int(
            0, static_cast<fp::s64>(l.weights.size()) - 1));
        l.weights[idx] = at[g.uniform_int(0, 1)];
      }
    }
    switch (g.uniform_int(0, 3)) {
      case 0:
        l.act = nn::activation::linear;
        break;
      case 1:
        l.act = nn::activation::relu;
        break;
      case 2:
        l.act = nn::activation::tanh_act;
        l.lut = lookup_table::for_activation(nn::activation::tanh_act, 128,
                                             1000);
        break;
      default:
        l.act = nn::activation::sigmoid;
        // As many entries as the tanh table, so tables of equal size but
        // different values meet in one program.
        l.lut = lookup_table::for_activation(nn::activation::sigmoid, 128,
                                             1000);
        break;
    }
    if (edges && !l.lut && li + 1 < n_layers && g.bernoulli(0.6)) {
      if (g.bernoulli(0.5)) {
        // Every output ~ +-2^31 + noise: within a few 10^5 of the limits.
        for (auto& b : l.biases) {
          const fp::s64 target = g.bernoulli(0.5) ? i32_max : i32_min;
          b = (target + g.uniform_int(-3000, 3000)) * l.weight_scale;
        }
      } else {
        // One output exactly at an int32 limit or one step past it (zero
        // weights, bias = limit * scale); the others stay small.
        const fp::s64 exact[] = {i32_min - 1, i32_min, i32_max, i32_max + 1};
        const auto o = static_cast<std::size_t>(
            g.uniform_int(0, static_cast<fp::s64>(l.output_size) - 1));
        for (std::size_t j = 0; j < l.input_size; ++j) {
          l.weights[o * l.input_size + j] = 0;
        }
        l.biases[o] = exact[g.uniform_int(0, 3)] * l.weight_scale;
      }
    }
    in = l.output_size;
    layers.push_back(std::move(l));
  }
  return {input_size, std::move(layers)};
}

inline quantized_mlp random_qmlp(rng& g, bool extreme, bool edges = false) {
  qmlp_layers spec = random_qmlp_layers(g, extreme, edges);
  return quantized_mlp{spec.input_size, 1000, std::move(spec.layers)};
}

}  // namespace lf::test
