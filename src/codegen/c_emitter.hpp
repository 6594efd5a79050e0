// Emits the kernel-module C source for a quantized snapshot (§3.1,
// Listings 1 and 2): layer by layer, each layer's computation function
// apart from its parameter arrays, all written in order into one buffer.
// Decisions the program has already made are read from it, not recomputed:
// the fast variant where a layer is saturation-free, each table's
// interpolation tier, and one values array per distinct table.
//
// The generated file is valid C99 and compiles in two environments:
//  - as a Linux kernel module (the #ifdef __KERNEL__ section carries the
//    module boilerplate that registers the model with the LiteFlow core
//    module via lf_register_model), and
//  - as a plain userspace translation unit exporting lf_nn_infer, which the
//    test suite compiles with GCC and dlopens to golden-test the generated
//    arithmetic against the in-memory interpreter (quant::quantized_mlp).
// Both paths execute bit-identical integer arithmetic.
#pragma once

#include <string>

#include "quant/quantized_mlp.hpp"

namespace lf::codegen {

struct emit_options {
  /// Written into a C comment and string literals, so it must match
  /// [A-Za-z0-9_.-]+; emit_c_source throws std::invalid_argument otherwise.
  std::string model_name = "model";
  std::uint64_t version = 1;
};

/// Render the complete C source for the snapshot program.  It compiles
/// warning-free under `gcc -Wall -Wextra`.
std::string emit_c_source(const quant::quantized_mlp& program,
                          const emit_options& options);

}  // namespace lf::codegen
