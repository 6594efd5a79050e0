// Binary (de)serialization of MLP models.  This is the "NN Freezing
// Interface" artifact (§4.1): the userspace service saves the model, and the
// snapshot pipeline reads it back for quantization and code generation —
// exactly the hand-off the paper describes between the trainer and LiteFlow.
#pragma once

#include <string>

#include "nn/mlp.hpp"

namespace lf::nn {

/// Format, one fixed layout with no padding:
///   the 16 bytes "liteflow-mlp v2\n";
///   u64 input size, u64 layer count;
///   per layer: u64 output size, u64 activation code;
///   u64 parameter count;
///   the parameters as IEEE-754 binary64, in `mlp::parameters()` order.
/// Every u64 and binary64 is little-endian.  Activation codes: linear 0,
/// relu 1, tanh 2, sigmoid 3.
std::string save_mlp_to_string(const mlp& model);

/// Reloads bit for bit what save_mlp_to_string wrote.  Throws
/// std::runtime_error on malformed input: a wrong magic, a zero or
/// overflowing size, an unknown activation code, a parameter count that
/// does not match the layers or the bytes left, or a NaN or infinite
/// parameter.  Allocates nothing until the whole layout has been checked.
mlp load_mlp_from_string(const std::string& text);

}  // namespace lf::nn
