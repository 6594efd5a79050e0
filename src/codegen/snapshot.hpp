// A snapshot bundles everything §3.1's generator produces for one frozen
// model: the integer program (executable form), the generated C source (the
// artifact the paper compiles into a .ko), and identifying metadata.  It is
// named "snapshot" because, once generated, it is never tuned again — only
// replaced wholesale by the NN snapshot update path (§3.4).  Installing it
// (rt::snapshot_handle::install_standby) keeps the program and drops the
// C text, as the kernel keeps the inserted module, not its source: compile
// or write the text before installing.
#pragma once

#include <memory>
#include <string>

#include "codegen/c_emitter.hpp"
#include "nn/mlp.hpp"
#include "quant/quantizer.hpp"

namespace lf::codegen {

struct snapshot {
  std::string name;
  std::uint64_t version = 0;
  quant::quantized_mlp program;
  std::string c_source;

  std::size_t input_size() const noexcept { return program.input_size(); }
  std::size_t output_size() const noexcept { return program.output_size(); }
};

/// Freeze + quantize + translate: the full §3.1 pipeline.
snapshot generate_snapshot(const nn::mlp& model,
                           const quant::quantizer_config& qconfig,
                           std::string name, std::uint64_t version);

/// Default quantizer config (io_scale 1000, 1024-entry LUTs).
snapshot generate_snapshot(const nn::mlp& model, std::string name,
                           std::uint64_t version);

}  // namespace lf::codegen
