#include "quant/quantized_mlp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace lf::quant {
namespace {

constexpr bool fits_i32(s64 v) noexcept {
  return v >= INT32_MIN && v <= INT32_MAX;
}

/// True when every v[j] lies in [lo, hi].  Branch-free, so the scan costs
/// the same whichever element (if any) falls outside.
bool all_in_range(const s64* v, std::size_t n, s64 lo, s64 hi) noexcept {
  bool ok = true;
  for (std::size_t j = 0; j < n; ++j) ok &= (v[j] >= lo) & (v[j] <= hi);
  return ok;
}

/// Samples per block of infer_batch_into's sample lanes: two 4-lane
/// vectors.
constexpr std::size_t k_lanes = 8;

/// The fewest real samples for which a block beats one infer_into per
/// sample; shorter blocks run per sample.  An LB-MLP block costs about
/// 3.5 infer_into calls (bench_micro's bm_quantized_infer_batch_into_lb_mlp
/// at k = 3, 4 and 8).
constexpr std::size_t k_lanes_min = 4;

#if defined(__x86_64__)
/// A table's dense form as the lanes read it.
struct lane_table {
  const std::int32_t* values = nullptr;  ///< lookup_table::dense()
  s64 lo_q = 0;
  s64 span = 0;
};

/// lookup_table::eval on four lanes, read from the dense form: x is clamped
/// into [lo, lo + span] first, so each gathered index x - lo lies in
/// [0, span], inside the dense() allocation.
__attribute__((target("avx2"))) inline __m256i lane_lookup(
    __m256i x, const lane_table& t) noexcept {
  const __m256i lo = _mm256_set1_epi64x(t.lo_q);
  const __m256i hi = _mm256_set1_epi64x(t.lo_q + t.span);
  x = _mm256_blendv_epi8(x, lo, _mm256_cmpgt_epi64(lo, x));
  x = _mm256_blendv_epi8(x, hi, _mm256_cmpgt_epi64(x, hi));
  return _mm256_cvtepi32_epi64(_mm256_i64gather_epi32(
      reinterpret_cast<const int*>(t.values), _mm256_sub_epi64(x, lo), 4));
}

/// The scalar epilogue on four accumulators: requantize (round half away
/// on the magnitude, restore the sign; |acc| + half < 2^63 by the
/// no-saturation proof, so the logical shift by `shift` >= 0 is exact),
/// then activate (tanh_act stands for both LUT activations and reads
/// `lut`, which relu and linear layers leave empty).
template <nn::activation Act>
__attribute__((target("avx2"))) inline __m256i lane_epilogue(
    __m256i acc, __m256i half, __m128i shift, const lane_table& lut) noexcept {
  const __m256i zero = _mm256_setzero_si256();
  if constexpr (Act == nn::activation::relu) {
    // relu(requantize(acc)): a non-positive accumulator rounds to a
    // non-positive value, which relu zeroes, so only acc > 0 lanes keep
    // (acc + half) >> shift and the sign restore drops out.
    const __m256i pos = _mm256_cmpgt_epi64(acc, zero);
    return _mm256_and_si256(
        _mm256_srl_epi64(_mm256_add_epi64(acc, half), shift), pos);
  } else {
    const __m256i sign = _mm256_cmpgt_epi64(zero, acc);  // 0 or -1
    const __m256i mag = _mm256_sub_epi64(_mm256_xor_si256(acc, sign), sign);
    const __m256i r = _mm256_srl_epi64(_mm256_add_epi64(mag, half), shift);
    const __m256i pre = _mm256_sub_epi64(_mm256_xor_si256(r, sign), sign);
    if constexpr (Act == nn::activation::tanh_act) {
      return lane_lookup(pre, lut);
    } else {
      return pre;
    }
  }
}

/// acc[0..4Q) = bias[0..4Q) + sum_j w_j(0..4Q) * x[j], four 64-bit lanes
/// per quad of outputs, the biases loaded from their words at `b`.  Row j starts at w + j*stride, in 8-output groups laid
/// out o0 o4 o1 o5 o2 o6 o3 o7 (quantized_mlp::row_slot): a 256-bit load at
/// a group's dword 0 holds outputs 0-3 in its lanes' low dwords, and one at
/// dword 1 outputs 4-7.  _mm256_mul_epi32 multiplies the sign-extended low
/// 32 bits of each lane, which is the exact product when the input fits
/// int32, so the high dwords are never read; the no-saturation proof makes
/// the wrapping 64-bit adds exact in any summation order.  The dword-1 load
/// of a row's last group reads one dword past it: the next row's first, or
/// after the last row the layer's first bias, so it stays in the arena.
/// Each quad then runs lane_epilogue and is stored whole to `out`.  Padding
/// lanes have zero weights and bias; a LUT layer's still read the table,
/// which the clamp keeps in bounds.
template <nn::activation Act, int Q>
__attribute__((target("avx2"))) void mac_i32_quads(
    const std::int32_t* w, std::size_t stride, const std::int32_t* b,
    const s64* x,
    std::size_t n, int shift, s64 half, const lane_table& table,
    s64* out) noexcept {
  const lane_table lut = table;  // a local copy: stores to out cannot alias it
  // Fully unrolled over the quads so the accumulators live in registers.
  __m256i a[Q];
#pragma GCC unroll 4
  for (int q = 0; q < Q; ++q) {
    a[q] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + 8 * q));
  }
  for (std::size_t j = 0; j < n; ++j) {
    const __m256i xj = _mm256_set1_epi64x(x[j]);
    const std::int32_t* row = w + j * stride;
#pragma GCC unroll 4
    for (int q = 0; q < Q; ++q) {
      const __m256i wj = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(row + 8 * (q / 2) + q % 2));
      a[q] = _mm256_add_epi64(a[q], _mm256_mul_epi32(wj, xj));
    }
  }
  const __m256i h = _mm256_set1_epi64x(half);
  const __m128i count = _mm_cvtsi32_si128(shift);
#pragma GCC unroll 4
  for (int q = 0; q < Q; ++q) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4 * q),
                        lane_epilogue<Act>(a[q], h, count, lut));
  }
}

/// Up to 16 outputs (`quads` of 4 lanes) per call, so the accumulators stay
/// in registers and each broadcast input is reused across the quads.
constexpr std::size_t k_block = 16;

template <nn::activation Act>
__attribute__((target("avx2"))) void mac_i32_block(
    const std::int32_t* w, std::size_t stride, const std::int32_t* b,
    const s64* x,
    std::size_t n, std::size_t quads, int shift, s64 half,
    const lane_table& lut, s64* out) noexcept {
  switch (quads) {
    case 4:
      mac_i32_quads<Act, 4>(w, stride, b, x, n, shift, half, lut, out);
      break;
    case 3:
      mac_i32_quads<Act, 3>(w, stride, b, x, n, shift, half, lut, out);
      break;
    case 2:
      mac_i32_quads<Act, 2>(w, stride, b, x, n, shift, half, lut, out);
      break;
    default:
      mac_i32_quads<Act, 1>(w, stride, b, x, n, shift, half, lut, out);
      break;
  }
}

/// A layer of `m` outputs (shift >= 0; a dense table for tanh_act) on the
/// int32 kernel: each block's quads land straight in `out`, which must hold
/// `m` rounded up to whole quads.  A block starts at a group boundary, so
/// its rows start at dword `o` too.
template <nn::activation Act>
__attribute__((target("avx2"))) void mac_i32_layer(
    const std::int32_t* w, std::size_t stride, const std::int32_t* b,
    const s64* x,
    std::size_t n, std::size_t m, int shift, s64 half, const lane_table& lut,
    s64* out) noexcept {
  for (std::size_t o = 0; o < m; o += k_block) {
    const std::size_t quads = (std::min(k_block, m - o) + 3) / 4;
    mac_i32_block<Act>(w + o, stride, b + 2 * o, x, n, quads, shift, half,
                       lut, out + o);
  }
}

/// G outputs of one quad of a layer (b and y start at the first; w at its
/// weight in row 0, the others two dwords apart by the interleave) for the
/// 8 samples of a block, whose rows hold one value per sample:
/// y[g*8 + s] = epilogue(bias g + sum_j w[j*stride + 2g] * x[j*8 + s]).  Each
/// weight is broadcast to both vectors, and the product is exact as in
/// mac_i32_quads.  Returns the lanes whose stored value left int32 (all
/// ones), for the next layer's operand check; relu outputs are never
/// negative, so only their upper bound is compared, and table outputs are
/// dense() values, which fit int32.
template <nn::activation Act, int G>
__attribute__((target("avx2"))) __m256i mac_samples_groups(
    const std::int32_t* w, std::size_t stride, const std::int32_t* b,
    const s64* x,
    std::size_t n, __m256i half, __m128i shift, const lane_table& table,
    s64* y) noexcept {
  const lane_table lut = table;  // a local copy: stores to y cannot alias it
  __m256i a[G][2];
#pragma GCC unroll 4
  for (int g = 0; g < G; ++g) {
    a[g][0] = a[g][1] = _mm256_broadcastq_epi64(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b + 2 * g)));
  }
  for (std::size_t j = 0; j < n; ++j) {
    const auto* xj = reinterpret_cast<const __m256i*>(x + j * k_lanes);
    const __m256i x0 = _mm256_loadu_si256(xj);
    const __m256i x1 = _mm256_loadu_si256(xj + 1);
    const std::int32_t* row = w + j * stride;
#pragma GCC unroll 4
    for (int g = 0; g < G; ++g) {
      const __m256i wj = _mm256_set1_epi32(row[2 * g]);
      a[g][0] = _mm256_add_epi64(a[g][0], _mm256_mul_epi32(wj, x0));
      a[g][1] = _mm256_add_epi64(a[g][1], _mm256_mul_epi32(wj, x1));
    }
  }
  const __m256i i32_max = _mm256_set1_epi64x(INT32_MAX);
  const __m256i i32_min = _mm256_set1_epi64x(INT32_MIN);
  __m256i bad = _mm256_setzero_si256();
#pragma GCC unroll 4
  for (int g = 0; g < G; ++g) {
    for (int v = 0; v < 2; ++v) {
      const __m256i r = lane_epilogue<Act>(a[g][v], half, shift, lut);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + g * k_lanes + 4 * v),
                          r);
      if constexpr (Act != nn::activation::tanh_act) {
        bad = _mm256_or_si256(bad, _mm256_cmpgt_epi64(r, i32_max));
      }
      if constexpr (Act == nn::activation::linear) {
        bad = _mm256_or_si256(bad, _mm256_cmpgt_epi64(i32_min, r));
      }
    }
  }
  return bad;
}

/// A layer of `m` outputs (shift >= 0; a dense table for tanh_act) on the
/// sample lanes: rows x[j*8 + s] for j < n in, y[i*8 + s] for i < m out.
/// False when a stored value left int32.
template <nn::activation Act>
__attribute__((target("avx2"))) bool mac_samples_layer(
    const std::int32_t* w, std::size_t stride, const std::int32_t* b,
    const s64* x, std::size_t n, std::size_t m, int shift, s64 half,
    const lane_table& lut, s64* y) noexcept {
  const __m256i h = _mm256_set1_epi64x(half);
  const __m128i count = _mm_cvtsi32_si128(shift);
  __m256i bad = _mm256_setzero_si256();
  for (std::size_t o = 0; o < m; o += 4) {
    // Output o's slot in a row: its group's first dword, plus 1 for the
    // group's second quad.
    const std::int32_t* wo = w + (o & ~std::size_t{7}) + ((o >> 2) & 1);
    const std::int32_t* bo = b + 2 * o;
    s64* yo = y + o * k_lanes;
    __m256i r;
    switch (std::min<std::size_t>(4, m - o)) {
      case 4:
        r = mac_samples_groups<Act, 4>(wo, stride, bo, x, n, h, count, lut,
                                       yo);
        break;
      case 3:
        r = mac_samples_groups<Act, 3>(wo, stride, bo, x, n, h, count, lut,
                                       yo);
        break;
      case 2:
        r = mac_samples_groups<Act, 2>(wo, stride, bo, x, n, h, count, lut,
                                       yo);
        break;
      default:
        r = mac_samples_groups<Act, 1>(wo, stride, bo, x, n, h, count, lut,
                                       yo);
        break;
    }
    bad = _mm256_or_si256(bad, r);
  }
  return _mm256_testz_si256(bad, bad) != 0;
}
#endif

}  // namespace

bool quantized_mlp::simd_dispatch() noexcept {
#if defined(__x86_64__)
  static const bool has_avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has_avx2;
#else
  return false;
#endif
}

void inference_scratch::reserve(const quantized_mlp& program) {
  buf_.resize(2 * program.max_width_);
}

quantized_mlp::quantized_mlp(std::size_t input_size, s64 io_scale,
                             std::vector<qdense_layer> layers)
    : input_size_{input_size}, io_scale_{io_scale} {
  if (layers.empty()) throw std::invalid_argument{"quantized_mlp: no layers"};
  if (io_scale <= 0) throw std::invalid_argument{"quantized_mlp: bad scale"};
  std::size_t in = input_size_;
  for (const auto& layer : layers) {
    if (layer.input_size != in) {
      throw std::invalid_argument{"quantized_mlp: layer size chain broken"};
    }
    if (layer.weights.size() != layer.input_size * layer.output_size ||
        layer.biases.size() != layer.output_size) {
      throw std::invalid_argument{"quantized_mlp: parameter shape mismatch"};
    }
    if (layer.weight_scale <= 0) {
      throw std::invalid_argument{"quantized_mlp: bad weight scale"};
    }
    // The arena stores int32 weights, the int32 kernel's operand width.
    if (!std::all_of(layer.weights.begin(), layer.weights.end(), fits_i32)) {
      throw std::invalid_argument{"quantized_mlp: weight outside int32"};
    }
    const bool needs_lut = layer.act == nn::activation::tanh_act ||
                           layer.act == nn::activation::sigmoid;
    if (needs_lut != (layer.lut != nullptr)) {
      throw std::invalid_argument{
          "quantized_mlp: lut presence inconsistent with activation"};
    }
    in = layer.output_size;
  }
  build_arena(layers);
}

void quantized_mlp::build_arena(const std::vector<qdense_layer>& layers) {
  static_assert(std::is_trivially_copyable_v<layer_desc>);
  const auto padded = [](std::size_t n, std::size_t to) {
    return (n + to - 1) / to * to;
  };
  // Per layer, input-major rows of whole 8-output groups, then the biases
  // in whole 4-lane groups, two words each.  Zero-filled, which is what the
  // padding lanes hold.
  std::size_t total = 0;
  for (const auto& l : layers) {
    total += l.input_size * padded(l.output_size, 8) +
             2 * padded(l.output_size, 4);
  }
  arena_.resize(total);
  descs_.reserve(layers.size());
  luts_.reserve(layers.size());
  max_width_ = input_size_;

  // Fast-path contract: the no-saturation proof assumes |input| <= bound.
  // io_scale * 2^20 covers physical values up to ~a million in io units —
  // far beyond anything the datapath feeds — while leaving the bound small
  // enough that realistic layers prove saturation-free.
  fastpath_input_bound_ = fp::sat_mul(io_scale_, s64{1} << 20);

  constexpr __int128 lim = fp::s64_max;
  __int128 in_bound = fastpath_input_bound_;
  std::size_t off = 0;
  for (const qdense_layer& l : layers) {
    layer_desc d;
    d.input_size = l.input_size;
    d.output_size = l.output_size;
    d.weight_scale = l.weight_scale;
    d.act = l.act;
    // The quantizer always picks power-of-two weight scales; requantization
    // then reduces to a shift with a rounding bias (equal to div_round for
    // every in-bound accumulator — the +half headroom is checked below).
    if ((l.weight_scale & (l.weight_scale - 1)) == 0) {
      d.shift =
          std::countr_zero(static_cast<std::uint64_t>(l.weight_scale));
      d.half = l.weight_scale >> 1;
    }
    // Input-major weights: the int32 kernel loads each input's row a
    // group at a time, and the scalar loops and infer() walk neuron i's
    // column w[j*stride + row_slot(i)] in j order.
    d.stride = padded(l.output_size, 8);
    d.weights_off = off;
    off += l.input_size * d.stride;
    d.biases_off = off;
    off += 2 * padded(l.output_size, 4);
    std::int32_t* w = arena_.data() + d.weights_off;
    for (std::size_t i = 0; i < l.output_size; ++i) {
      for (std::size_t j = 0; j < l.input_size; ++j) {
        w[j * d.stride + row_slot(i)] =
            static_cast<std::int32_t>(l.weights[i * l.input_size + j]);
      }
    }
    std::memcpy(arena_.data() + d.biases_off, l.biases.data(),
                l.biases.size() * sizeof(s64));
    // The table's dense form is its own, made once per table.
    if (l.lut && !l.lut->dense().empty()) {
      d.lut = l.lut->dense().data();
      d.lut_lo_q = l.lut->domain_low_q();
      d.lut_span = l.lut->domain_span_q();
    }

    // Worst-case accumulator: |bias_i| + sum_j |w_ij| * in_bound.  If the
    // worst neuron stays within s64, no partial sum of the MAC can overflow
    // in any summation order, so plain wrapping-free arithmetic is exact.
    bool sat_free = true;
    __int128 layer_acc_max = 0;
    for (std::size_t i = 0; i < l.output_size && sat_free; ++i) {
      __int128 a = fp::abs128(l.biases[i]);
      const s64* row = &l.weights[i * l.input_size];
      for (std::size_t j = 0; j < l.input_size; ++j) {
        a += fp::abs128(row[j]) * in_bound;
        if (a > lim) {
          sat_free = false;
          break;
        }
      }
      layer_acc_max = std::max(layer_acc_max, a);
    }
    // Shift-based rounding adds `half` to |acc| before the shift; fold that
    // headroom into the proof so the fast path stays exact.
    if (sat_free && d.shift >= 0 && layer_acc_max + d.half > lim) {
      sat_free = false;
    }
    d.saturation_free = sat_free;

    // int32 operands: the weights by the constructor's contract, the
    // inputs statically when the propagated bound proves it and otherwise
    // by a per-call scan.
    if (sat_free) {
      d.operands = in_bound <= INT32_MAX ? operand_proof::proven
                                         : operand_proof::per_call;
    }
    // The lanes requantize with the shift and read dense tables; any other
    // scale or table (the default quantizer emits neither) runs scalar.
    d.simd = d.operands != operand_proof::none && simd_dispatch() &&
             d.shift >= 0 && (!l.lut || d.lut != nullptr);

    // Propagate this layer's output bound as the next layer's input bound.
    if (l.lut) {
      // LUT outputs clamp to the table's value range no matter the input.
      in_bound = l.lut->max_abs();
    } else {
      // linear/relu: |out| <= |div_round(acc, ws)| <= acc_bound/ws + 1, and
      // the saturating fallback clamps to s64 either way.
      __int128 pre = sat_free ? layer_acc_max / l.weight_scale + 1 : lim;
      in_bound = std::min(pre, lim);
    }

    max_width_ = std::max(max_width_, l.output_size);
    descs_.push_back(d);
    luts_.push_back(l.lut);
  }
  // Activation rows hold whole 4-lane groups: the int32 kernel stores them.
  max_width_ = padded(max_width_, 4);
  sample_lanes_ = std::all_of(descs_.begin(), descs_.end(),
                              [](const auto& d) { return d.simd; });
}

qdense_layer quantized_mlp::layer(std::size_t i) const {
  const layer_desc& d = descs_.at(i);
  qdense_layer l;
  l.input_size = d.input_size;
  l.output_size = d.output_size;
  l.weights.reserve(d.input_size * d.output_size);
  for (std::size_t o = 0; o < d.output_size; ++o) {
    for (std::size_t j = 0; j < d.input_size; ++j) {
      l.weights.push_back(weight(i, o, j));
    }
  }
  l.biases.resize(d.output_size);
  std::memcpy(l.biases.data(), biases_of(d), d.output_size * sizeof(s64));
  l.weight_scale = d.weight_scale;
  l.act = d.act;
  l.lut = luts_[i];
  return l;
}

std::size_t quantized_mlp::layer_lut_source(std::size_t i) const {
  const lookup_table* lut = layer_lut(i);
  if (lut == nullptr) return i;
  // Shared tables (Aurora's three tanh layers) compare by address; equal
  // values in distinct objects count as one table too.
  std::size_t p = 0;
  for (; p < i; ++p) {
    const lookup_table* other = luts_[p].get();
    if (other != nullptr &&
        (other == lut || std::ranges::equal(other->values(), lut->values()))) {
      break;
    }
  }
  return p;
}

std::size_t quantized_mlp::output_size() const noexcept {
  return descs_.back().output_size;
}

std::vector<s64> quantized_mlp::infer(std::span<const s64> input_q) const {
  if (input_q.size() != input_size_) {
    throw std::invalid_argument{"quantized_mlp::infer input size mismatch"};
  }
  std::vector<s64> cur(input_q.begin(), input_q.end());
  std::vector<s64> next;
  for (std::size_t li = 0; li < descs_.size(); ++li) {
    const layer_desc& d = descs_[li];
    const std::int32_t* w = weights_of(d);
    const std::int32_t* b = biases_of(d);
    next.assign(d.output_size, 0);
    for (std::size_t i = 0; i < d.output_size; ++i) {
      // MAC at scale weight_scale * io_scale; biases are pre-scaled to match.
      s64 acc = bias_at(b, i);
      const std::size_t slot = row_slot(i);
      for (std::size_t j = 0; j < d.input_size; ++j) {
        acc = fp::sat_add(acc, fp::sat_mul(w[j * d.stride + slot], cur[j]));
      }
      // Requantize back to io_scale before the activation.
      const s64 pre = fp::div_round(acc, d.weight_scale);
      switch (d.act) {
        case nn::activation::linear:
          next[i] = pre;
          break;
        case nn::activation::relu:
          next[i] = pre > 0 ? pre : 0;
          break;
        case nn::activation::tanh_act:
        case nn::activation::sigmoid:
          next[i] = luts_[li]->eval(pre);
          break;
      }
    }
    cur.swap(next);
  }
  return cur;
}

template <bool Saturating>
inline __attribute__((always_inline)) s64 quantized_mlp::requantize(
    const layer_desc& d, s64 acc) noexcept {
  if constexpr (!Saturating) {
    // Power-of-two requantization without the hardware divide: round to
    // nearest, ties away from zero, on the magnitude.  Exact vs div_round
    // for all in-bound accumulators (the +half headroom is proven).  The
    // sign is applied without a branch: accumulator signs are data-
    // dependent, and |acc| cannot be s64_min under the proof.
    if (d.shift >= 0) {
      const s64 sign = acc >> 63;  // 0 or -1
      const s64 mag = (acc ^ sign) - sign;
      return (((mag + d.half) >> d.shift) ^ sign) - sign;
    }
  }
  return fp::div_round(acc, d.weight_scale);
}

template <nn::activation Act>
inline __attribute__((always_inline)) s64 quantized_mlp::activate(
    const layer_desc& d, s64 pre) noexcept {
  if constexpr (Act == nn::activation::linear) {
    return pre;
  } else if constexpr (Act == nn::activation::relu) {
    return pre > 0 ? pre : 0;
  } else {
    return d.lut[std::clamp(pre, d.lut_lo_q, d.lut_lo_q + d.lut_span) -
                 d.lut_lo_q];
  }
}

template <bool Saturating, nn::activation Act>
void quantized_mlp::run_layer(const layer_desc& desc, const s64* in,
                              s64* out) const {
  const layer_desc d = desc;  // a local copy: stores to out cannot alias it
  const std::int32_t* __restrict w = weights_of(d);
  const std::int32_t* __restrict b = biases_of(d);
  const std::size_t n = d.input_size;
  const std::size_t s = d.stride;
  for (std::size_t i = 0; i < d.output_size; ++i) {
    // neuron i's weight j is col[j * s]
    const std::int32_t* __restrict col = w + row_slot(i);
    s64 acc;
    if constexpr (Saturating) {
      acc = bias_at(b, i);
      for (std::size_t j = 0; j < n; ++j) {
        acc = fp::sat_add(acc, fp::sat_mul(col[j * s], in[j]));
      }
    } else {
      // The bound proof guarantees every partial sum is in range, so the
      // four accumulators (breaking the add dependency chain) reassociate
      // without changing the result — and without signed-overflow UB.
      s64 a0 = 0, a1 = 0, a2 = 0, a3 = 0;
      std::size_t j = 0;
      for (; j + 4 <= n; j += 4) {
        a0 += col[j * s] * in[j];
        a1 += col[(j + 1) * s] * in[j + 1];
        a2 += col[(j + 2) * s] * in[j + 2];
        a3 += col[(j + 3) * s] * in[j + 3];
      }
      acc = bias_at(b, i) + ((a0 + a1) + (a2 + a3));
      for (; j < n; ++j) acc += col[j * s] * in[j];
    }
    out[i] = activate<Act>(d, requantize<Saturating>(d, acc));
  }
}

void quantized_mlp::run(std::size_t li, bool in_bounds, const s64* in,
                        s64* out) const {
  using nn::activation;
  const layer_desc& d = descs_[li];
  const bool fast = in_bounds && d.saturation_free;
#if defined(__x86_64__)
  if (fast && d.simd &&
      (d.operands == operand_proof::proven ||
       all_in_range(in, d.input_size, INT32_MIN, INT32_MAX))) {
    const std::int32_t* w = weights_of(d);
    const std::int32_t* b = biases_of(d);
    switch (d.act) {
      case activation::linear:
        return mac_i32_layer<activation::linear>(w, d.stride, b, in,
                                                 d.input_size, d.output_size,
                                                 d.shift, d.half, {}, out);
      case activation::relu:
        return mac_i32_layer<activation::relu>(w, d.stride, b, in,
                                               d.input_size, d.output_size,
                                               d.shift, d.half, {}, out);
      case activation::tanh_act:
      case activation::sigmoid:
        return mac_i32_layer<activation::tanh_act>(
            w, d.stride, b, in, d.input_size, d.output_size, d.shift, d.half,
            {d.lut, d.lut_lo_q, d.lut_span}, out);
    }
  }
#endif
  // Activation dispatch hoisted out of the neuron loop: one switch per
  // layer selects a fully specialized inner loop.
  switch (d.act) {
    case activation::linear:
      return fast ? run_layer<false, activation::linear>(d, in, out)
                  : run_layer<true, activation::linear>(d, in, out);
    case activation::relu:
      return fast ? run_layer<false, activation::relu>(d, in, out)
                  : run_layer<true, activation::relu>(d, in, out);
    case activation::tanh_act:
    case activation::sigmoid:
      if (d.lut == nullptr) {
        // No dense form: the pre-activations, then the table's own eval,
        // as infer() reads it.
        fast ? run_layer<false, activation::linear>(d, in, out)
             : run_layer<true, activation::linear>(d, in, out);
        const lookup_table& table = *luts_[li];
        for (std::size_t i = 0; i < d.output_size; ++i) {
          out[i] = table.eval(out[i]);
        }
        return;
      }
      return fast ? run_layer<false, activation::tanh_act>(d, in, out)
                  : run_layer<true, activation::tanh_act>(d, in, out);
  }
}

void quantized_mlp::infer_into(std::span<const s64> input_q, std::span<s64> out,
                               inference_scratch& scratch) const {
  if (input_q.size() != input_size_) {
    throw std::invalid_argument{"quantized_mlp::infer_into input size mismatch"};
  }
  if (out.size() != output_size()) {
    throw std::invalid_argument{
        "quantized_mlp::infer_into output size mismatch"};
  }
  if (scratch.buf_.size() < 2 * max_width_) scratch.buf_.resize(2 * max_width_);
  infer_unchecked(input_q.data(), out.data(), scratch.buf_.data());
}

void quantized_mlp::infer_unchecked(const s64* in, s64* out,
                                    s64* buf) const {
  // One pass over the inputs picks the mode for the whole call: within the
  // precomputed bound the per-layer proofs apply; beyond it everything runs
  // saturating (bit-identical to infer() either way).
  const bool in_bounds = all_in_range(in, input_size_, -fastpath_input_bound_,
                                      fastpath_input_bound_);

  // Every layer writes a scratch row padded to whole 4-lane groups, the
  // last one too: the int32 kernel stores full groups, and `out` holds
  // exactly output_size() values.
  s64* const half_a = buf;
  s64* const half_b = buf + max_width_;
  const s64* cur = in;
  for (std::size_t li = 0; li < descs_.size(); ++li) {
    s64* const dst = li % 2 == 0 ? half_a : half_b;
    run(li, in_bounds, cur, dst);
    cur = dst;
  }
  std::copy_n(cur, output_size(), out);
}

bool quantized_mlp::run_block(const s64* in, std::size_t real, s64* out,
                              s64* rows) const {
#if defined(__x86_64__)
  using nn::activation;
  // Transpose the caller's rows into x[j*8 + s], spare lanes repeating the
  // last real sample.  Each value must lie within the no-saturation bound
  // and, for the first layer's operands, int32 (which the bound implies
  // when that layer's operands are proven).
  const s64 lo = std::max<s64>(-fastpath_input_bound_, INT32_MIN);
  const s64 hi = std::min<s64>(fastpath_input_bound_, INT32_MAX);
  s64* x = rows;
  s64* y = rows + k_lanes * max_width_;
  bool ok = true;
  for (std::size_t s = 0; s < k_lanes; ++s) {
    const s64* row = in + std::min(s, real - 1) * input_size_;
    for (std::size_t j = 0; j < input_size_; ++j) {
      x[j * k_lanes + s] = row[j];
      ok &= (row[j] >= lo) & (row[j] <= hi);
    }
  }
  if (!ok) return false;
  for (const layer_desc& d : descs_) {
    const std::int32_t* w = weights_of(d);
    const std::int32_t* b = biases_of(d);
    switch (d.act) {
      case activation::linear:
        ok = mac_samples_layer<activation::linear>(
            w, d.stride, b, x, d.input_size, d.output_size, d.shift, d.half,
            {}, y);
        break;
      case activation::relu:
        ok = mac_samples_layer<activation::relu>(
            w, d.stride, b, x, d.input_size, d.output_size, d.shift, d.half,
            {}, y);
        break;
      case activation::tanh_act:
      case activation::sigmoid:
        ok = mac_samples_layer<activation::tanh_act>(
            w, d.stride, b, x, d.input_size, d.output_size, d.shift, d.half,
            {d.lut, d.lut_lo_q, d.lut_span}, y);
        break;
    }
    // A row outside int32 breaks the next layer's operand precondition;
    // the last layer's rows are only copied out.
    if (!ok && &d != &descs_.back()) return false;
    std::swap(x, y);
  }
  const std::size_t out_sz = output_size();
  for (std::size_t s = 0; s < real; ++s) {
    for (std::size_t i = 0; i < out_sz; ++i) {
      out[s * out_sz + i] = x[i * k_lanes + s];
    }
  }
  return true;
#else
  (void)in, (void)real, (void)out, (void)rows;
  return false;
#endif
}

void quantized_mlp::infer_batch_into(std::span<const s64> inputs,
                                     std::size_t k, std::span<s64> outs,
                                     inference_scratch& scratch) const {
  const std::size_t out_sz = output_size();
  std::size_t total = 0;
  if (__builtin_mul_overflow(k, input_size_, &total) ||
      inputs.size() != total) {
    throw std::invalid_argument{
        "quantized_mlp::infer_batch_into input size mismatch"};
  }
  if (__builtin_mul_overflow(k, out_sz, &total) || outs.size() != total) {
    throw std::invalid_argument{
        "quantized_mlp::infer_batch_into output size mismatch"};
  }
  if (scratch.buf_.size() < 2 * k_lanes * max_width_) {
    scratch.buf_.resize(2 * k_lanes * max_width_);
  }
  // Blocks of 8 samples run on the sample lanes when every layer can; a
  // block that fails a check, and one too short to repay its spare lanes,
  // runs its real samples one by one.  The sizes were checked above, and
  // the lanes' scratch covers the 2 * max_width_ a sample needs.
  s64* const buf = scratch.buf_.data();
  for (std::size_t base = 0; base < k; base += k_lanes) {
    const std::size_t real = std::min(k_lanes, k - base);
    const s64* const in = inputs.data() + base * input_size_;
    s64* const out = outs.data() + base * out_sz;
    if (sample_lanes_ && real >= k_lanes_min &&
        run_block(in, real, out, buf)) {
      continue;
    }
    for (std::size_t s = 0; s < real; ++s) {
      infer_unchecked(in + s * input_size_, out + s * out_sz, buf);
    }
  }
}

std::vector<double> quantized_mlp::infer_float(
    std::span<const double> input) const {
  if (input.size() != input_size_) {
    throw std::invalid_argument{"quantized_mlp::infer_float size mismatch"};
  }
  std::vector<s64> q(input.size());
  const auto scale = static_cast<double>(io_scale_);
  for (std::size_t i = 0; i < input.size(); ++i) {
    // Saturate instead of llround's UB when the scaled value leaves s64.
    q[i] = fp::sat_quantize(input[i] * scale);
  }
  const auto out_q = infer(q);
  std::vector<double> out(out_q.size());
  for (std::size_t i = 0; i < out_q.size(); ++i) {
    out[i] = static_cast<double>(out_q[i]) / scale;
  }
  return out;
}

std::size_t quantized_mlp::mac_count() const noexcept {
  std::size_t n = 0;
  for (const layer_desc& d : descs_) n += d.input_size * d.output_size;
  return n;
}

std::size_t quantized_mlp::parameter_bytes() const noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < descs_.size(); ++i) {
    const layer_desc& d = descs_[i];
    n += (d.input_size + 1) * d.output_size * sizeof(s64);
    // A table shared with an earlier layer is stored once.
    if (luts_[i] && layer_lut_source(i) == i) {
      n += luts_[i]->values().size() * sizeof(s64);
    }
  }
  return n;
}

}  // namespace lf::quant
