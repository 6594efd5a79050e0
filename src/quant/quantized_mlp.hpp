// The integer-only snapshot program (§3.1).
//
// A quantized_mlp is what the paper installs into the kernel as a generated
// module: weights, biases and activation lookup tables baked into integer
// arrays, evaluated with 64-bit integer arithmetic only.  Its weights and
// biases live once, in one arena; its tables are the process's shared ones
// (lookup_table::for_activation), so a program and its copies hold
// references, not copies, of them.  src/codegen emits this same program as C
// source text, reading the arena; this class is the executable form the
// simulated kernel runs (and the oracle the generated code is golden-tested
// against).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nn/activation.hpp"
#include "quant/lut.hpp"
#include "util/fixed_point.hpp"

namespace lf::quant {

using fp::s64;

class quantized_mlp;

/// What proves that a layer's MAC operands, its weights and its input
/// vector, all fit int32: the precondition of the int32-operand (AVX2)
/// kernel.  Only saturation-free layers qualify.
enum class operand_proof : std::uint8_t {
  none,      ///< always scalar: a weight exceeds int32 or the MAC may saturate
  per_call,  ///< weights fit; infer_into scans the layer's input vector on
             ///< each call, and infer_batch_into's sample lanes check each
             ///< row as it is stored (the caller's as they are transposed)
  proven,    ///< weights fit and the propagated input bound is below 2^31
};

/// Caller-owned scratch for the zero-allocation fast path.  Holds the two
/// ping-pong activation buffers `infer_into` works in, or the two blocks of
/// sample rows `infer_batch_into` works in; reusing one scratch across
/// calls makes inference allocation-free after the first use.
class inference_scratch {
 public:
  inference_scratch() = default;

  /// Pre-size for a program (optional; infer_into grows it on demand).
  void reserve(const quantized_mlp& program);

 private:
  friend class quantized_mlp;
  std::vector<s64> buf_;
};

/// One quantized fully-connected layer followed by its activation: what a
/// program is built from, and what quantized_mlp::layer() rebuilds.
struct qdense_layer {
  std::size_t input_size = 0;
  std::size_t output_size = 0;
  std::vector<s64> weights;  ///< output-major, scale = weight_scale
  std::vector<s64> biases;   ///< scale = weight_scale * io_scale
  s64 weight_scale = 1;      ///< divisor applied after the MAC to requantize
  nn::activation act = nn::activation::linear;
  /// set iff act is tanh/sigmoid; shared with every other holder
  std::shared_ptr<const lookup_table> lut;
};

class quantized_mlp {
 public:
  quantized_mlp(std::size_t input_size, s64 io_scale,
                std::vector<qdense_layer> layers);

  std::size_t input_size() const noexcept { return input_size_; }
  std::size_t output_size() const noexcept;
  std::size_t layer_count() const noexcept { return descs_.size(); }

  /// Layer i rebuilt by value from the arena, field for field the
  /// qdense_layer it was built from (weights output-major again).  It
  /// allocates; the emitter and the inference paths read the accessors
  /// below instead.
  qdense_layer layer(std::size_t i) const;

  std::size_t layer_input_size(std::size_t i) const {
    return descs_.at(i).input_size;
  }
  std::size_t layer_output_size(std::size_t i) const {
    return descs_.at(i).output_size;
  }
  s64 layer_weight_scale(std::size_t i) const {
    return descs_.at(i).weight_scale;
  }
  nn::activation layer_activation(std::size_t i) const {
    return descs_.at(i).act;
  }
  /// Layer i's shared table; nullptr for relu/linear layers.
  const lookup_table* layer_lut(std::size_t i) const {
    return luts_.at(i).get();
  }

  /// Layer `layer`'s weight from input `in` to output `out`, read from the
  /// arena (`out` < layer_output_size, `in` < layer_input_size).
  s64 weight(std::size_t layer, std::size_t out, std::size_t in) const {
    const layer_desc& d = descs_.at(layer);
    return arena_[d.weights_off + in * d.stride + out];
  }
  /// Layer `layer`'s bias of output `out` (< layer_output_size).
  s64 bias(std::size_t layer, std::size_t out) const {
    return arena_[descs_.at(layer).biases_off + out];
  }

  /// Fixed-point scale of inputs and outputs: q ~= value * io_scale.
  /// This is the paper's scaling factor C ("1000x scaling").
  s64 io_scale() const noexcept { return io_scale_; }

  /// Integer reference inference (this is the exact arithmetic the kernel
  /// snapshot performs; no floating point anywhere on this path).  Kept as
  /// the allocating legacy path: it walks the arena neuron by neuron, in the
  /// emitted C's order, with fully saturating arithmetic and the tables'
  /// own lookup_table::eval, and is the oracle `infer_into` is
  /// property-tested against bit-for-bit.
  std::vector<s64> infer(std::span<const s64> input_q) const;

  /// Zero-allocation fast path: same outputs as infer(), bit-for-bit, but
  /// reads parameters from one contiguous arena, reuses caller-owned scratch
  /// (no heap traffic once warm), and — for layers whose precomputed
  /// accumulator bound proves saturation can never trigger — runs a plain
  /// +/* MAC loop with the activation dispatch hoisted out of the loop.
  /// Where the operands also fit int32 (layer_operand_proof) and the CPU
  /// has AVX2, that loop runs four output lanes per instruction, and the
  /// layer requantizes and activates in those lanes too (tanh/sigmoid when
  /// the table is on lut_tier::bits32).
  /// `out.size()` must equal output_size().
  void infer_into(std::span<const s64> input_q, std::span<s64> out,
                  inference_scratch& scratch) const;

  /// Batched fast path: run `k` independent inferences in one call,
  /// bit-for-bit identical to k scalar infer_into() calls.  `inputs` is
  /// row-major k x input_size(), `outs` row-major k x output_size(); a k
  /// whose sizes overflow is rejected.  This is the "one weight pass over
  /// K flows" the rt engine's route_batch feeds (same-generation packet
  /// runs).  Blocks of 8 samples run with the AVX2 lanes carrying samples:
  /// each weight is broadcast once per block and each layer's rows are
  /// the next layer's input, when every layer is saturation-free and on
  /// the int32 kernel, every sample is within fastpath_input_bound(), and
  /// every row fits int32.  Other blocks, and blocks of fewer than 4 real
  /// samples, run one infer_into per sample.  Zero-allocation once
  /// `scratch` is warm; its size does not depend on k.
  void infer_batch_into(std::span<const s64> inputs, std::size_t k,
                        std::span<s64> outs, inference_scratch& scratch) const;

  /// Largest |input| (in io_scale units) for which the per-layer
  /// no-saturation proof holds; inputs beyond it take the saturating path.
  s64 fastpath_input_bound() const noexcept { return fastpath_input_bound_; }

  /// True if layer i's MAC provably cannot saturate for inputs within
  /// fastpath_input_bound() (drives both infer_into and the C emitter).
  bool layer_saturation_free(std::size_t i) const {
    return descs_.at(i).saturation_free;
  }

  /// Which interpolation tier layer i's table takes (lut_tier::none for
  /// relu/linear layers); infer_into and the C emitter both follow it.
  lut_tier layer_lut_tier(std::size_t i) const { return descs_.at(i).tier; }

  /// The first layer whose table holds the same values as layer i's: the
  /// one copy parameter_bytes() counts and the C emitter writes.  i itself
  /// for a layer without a table.
  std::size_t layer_lut_source(std::size_t i) const;

  /// How layer i's int32-operand precondition is established (see
  /// operand_proof).  Independent of the CPU this process runs on.
  operand_proof layer_operand_proof(std::size_t i) const {
    return descs_.at(i).operands;
  }

  /// True when this process runs int32-operand layers on AVX2 (x86-64 with
  /// AVX2, detected once per process); otherwise every layer runs scalar.
  static bool simd_dispatch() noexcept;

  /// Float convenience wrapper: quantize inputs, run the integer program,
  /// dequantize outputs.  Used for fidelity evaluation against the FP model.
  std::vector<double> infer_float(std::span<const double> input) const;

  /// Integer multiply-accumulate count of one inference (cost model input).
  std::size_t mac_count() const noexcept;

  /// Total bytes of baked parameters (weights + biases + each distinct
  /// table once), as the emitted module carries them.
  std::size_t parameter_bytes() const noexcept;

 private:
  friend class inference_scratch;

  /// Flat per-layer view into the parameter arena and the layer's table,
  /// plus everything the inner loops need.  Trivially copyable: run_layer
  /// copies it on every call.
  struct layer_desc {
    std::size_t input_size = 0;
    std::size_t output_size = 0;
    std::size_t stride = 0;       ///< output_size rounded up to 4 lanes
    std::size_t weights_off = 0;  ///< arena offset, input-major: j*stride + i
    std::size_t biases_off = 0;   ///< arena offset, `stride` zero-padded
    s64 weight_scale = 1;
    int shift = -1;   ///< log2(weight_scale) if it is a power of two, else -1
    s64 half = 0;     ///< weight_scale / 2, the round-to-nearest bias
    nn::activation act = nn::activation::linear;
    // LUT parameters (valid iff act is tanh/sigmoid), copied from the table,
    // which luts_ keeps alive:
    const s64* lut = nullptr;  ///< lookup_table::guarded_values()
    s64 lut_entries = 0;
    s64 lut_lo_q = 0;
    s64 lut_step_num = 0;
    fp::u64_divider lut_div;    ///< divides by lut_step_num (scalar path)
    fp::u32_divider lut_div32;  ///< the same in the lanes (bits32 tier)
    lut_tier tier = lut_tier::none;  ///< none for relu/linear layers
    bool saturation_free = false;
    operand_proof operands = operand_proof::none;
    /// operands != none, this process has AVX2, the weight scale is a power
    /// of two, and the layer has no table or a bits32 one
    bool simd = false;
  };

  void build_arena(const std::vector<qdense_layer>& layers);

  /// Runs one layer on the kernel its proofs allow for this call.
  void run(const layer_desc& d, bool in_bounds, const s64* in,
           s64* out) const;

  /// infer_into without its checks: `in` holds input_size() values, `out`
  /// output_size(), and `buf` at least 2 * max_width_.
  void infer_unchecked(const s64* in, s64* out, s64* buf) const;

  /// The whole program on the sample lanes for one block of infer_batch_into:
  /// `real` (1..8) input rows at `in`, their outputs to `out`, `rows` a
  /// scratch of 16 * max_width_.  False, with `out` untouched, when a value
  /// fails the bound or int32 check.
  bool run_block(const s64* in, std::size_t real, s64* out,
                 s64* rows) const;

  template <bool Saturating, nn::activation Act>
  void run_layer(const layer_desc& d, const s64* in, s64* out) const;

  /// Per-neuron epilogue: accumulator -> io_scale, then the activation.
  template <bool Saturating>
  static s64 requantize(const layer_desc& d, s64 acc) noexcept;
  template <nn::activation Act>
  static s64 activate(const layer_desc& d, const s64* lut, s64 pre) noexcept;

  std::size_t input_size_;
  s64 io_scale_;
  /// weights | biases, per layer: the program's only copy of its
  /// parameters (the tables stay in their shared objects)
  std::vector<s64> arena_;
  std::vector<layer_desc> descs_;
  /// Layer i's table, or nullptr; keeps alive what descs_[i].lut points at.
  std::vector<std::shared_ptr<const lookup_table>> luts_;
  s64 fastpath_input_bound_ = 0;
  /// Widest activation vector, rounded up to whole 4-lane groups: the
  /// length of each scratch row.
  std::size_t max_width_ = 0;
  /// Every layer is saturation-free and simd, so infer_batch_into's blocks
  /// may take the sample lanes.
  bool sample_lanes_ = false;
};

}  // namespace lf::quant
