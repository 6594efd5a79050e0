// Compile a generated snapshot with the system GCC and load it.
//
// The paper's userspace service "invokes GCC to compile the code into a
// kernel module" and insmod's it.  The userspace equivalent here compiles
// the same source as a shared object and dlopens it; tests use this to prove
// the generated C is bit-identical to the in-memory interpreter, and the
// prediction-latency benchmark (Fig. 15) runs real compiled inference.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/fixed_point.hpp"

namespace lf::codegen {

class compiled_snapshot {
 public:
  /// Write `c_source` into a private directory under TMPDIR (or /tmp),
  /// compile it with `gcc -O2 -Wall -Wextra -Werror -shared`, and dlopen
  /// the result; the directory is removed when the snapshot is destroyed.
  /// Throws std::runtime_error (with the compiler's stderr) on failure,
  /// including any warning.  Requires a working gcc on PATH.
  static compiled_snapshot compile(const std::string& c_source);

  compiled_snapshot(compiled_snapshot&&) noexcept;
  compiled_snapshot& operator=(compiled_snapshot&&) noexcept;
  compiled_snapshot(const compiled_snapshot&) = delete;
  compiled_snapshot& operator=(const compiled_snapshot&) = delete;
  ~compiled_snapshot();

  /// Run the compiled lf_nn_infer.
  std::vector<fp::s64> infer(std::span<const fp::s64> input,
                             std::size_t output_size) const;

  /// Zero-allocation variant: run the compiled lf_nn_infer into a
  /// caller-owned buffer sized to the model's output.
  void infer_into(std::span<const fp::s64> input, std::span<fp::s64> out) const;

 private:
  compiled_snapshot() = default;

  void* handle_ = nullptr;
  int (*infer_fn_)(const long long*, long long*) = nullptr;
  std::string dir_;  ///< holds the source, gcc's log and the .so
};

/// True if a usable gcc is available (tests skip gracefully otherwise).
bool compiler_available();

}  // namespace lf::codegen
