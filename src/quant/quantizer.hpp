// High-precision integer quantization (§3.1).
//
// Vanilla integer quantization of a CC network whose output is a fraction
// alpha in [0,1] would collapse the output to {0, 1}.  LiteFlow instead adds
// input/output scaling: every activation (including the model's inputs and
// outputs) is represented at scale C ("scaling factor", default 1000), so
// the snapshot outputs alpha' in {0..C} and the datapath computes
// floor(alpha' * line_rate / C).  Weights get an independent power-of-two
// scale chosen from their actual dynamic range.
#pragma once

#include "nn/mlp.hpp"
#include "quant/quantized_mlp.hpp"

namespace lf::quant {

struct quantizer_config {
  /// The paper's scaling factor C applied to inputs, activations, outputs.
  s64 io_scale = 1000;
  /// Number of entries per activation lookup table.
  std::size_t lut_entries = 1024;
};

/// Quantize a trained float model into an integer snapshot program.
quantized_mlp quantize(const nn::mlp& model, const quantizer_config& config);

/// Quantize with the default config.
quantized_mlp quantize(const nn::mlp& model);

}  // namespace lf::quant
