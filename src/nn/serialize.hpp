// Text (de)serialization of MLP models.  This is the "NN Freezing Interface"
// artifact (§4.1): the userspace service saves the model, and the snapshot
// pipeline reads it back for quantization and code generation — exactly the
// file hand-off the paper describes between the trainer and LiteFlow.
#pragma once

#include <string>

#include "nn/mlp.hpp"

namespace lf::nn {

/// Format:
///   liteflow-mlp v1
///   input <n>
///   layers <k>
///   layer <out> <activation>       (k times)
///   params <count>
///   <count whitespace-separated doubles, %.17g, eight to a line>
std::string save_mlp_to_string(const mlp& model);

/// Reads each parameter exactly as `istream >> double` does in the C locale:
/// a leading '+' is accepted, "nan" and "inf" are not, an underflow reads as
/// a signed zero and an overflow fails.  Throws std::runtime_error on
/// malformed input, and allocates nothing until the header is read and the
/// text is long enough to hold every parameter.
mlp load_mlp_from_string(const std::string& text);

}  // namespace lf::nn
