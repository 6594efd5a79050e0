#include "quant/quantized_mlp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace lf::quant {
namespace {

/// LUT evaluation from a layer_desc's copy of the table's parameters.  Must
/// match lookup_table::eval bit-for-bit — infer_into routes through this so
/// the hot path reads only the arena and the table's values.
/// Out of line: no quantizer table needs this tier, and inlined into the
/// neuron loop it would crowd the 64-bit tier's values out of registers.
[[gnu::noinline]] s64 lut_eval_arena(const s64* values, s64 n, s64 lo_q,
                                     s64 step_num, s64 x) noexcept {
  if (x <= lo_q) return values[0];
  if (x >= lo_q + step_num) return values[n - 1];
  const __int128 scaled = static_cast<__int128>(x - lo_q) * (n - 1);
  const auto idx = static_cast<s64>(scaled / step_num);
  if (idx >= n - 1) return values[n - 1];
  const auto rem = static_cast<s64>(scaled % step_num);
  const s64 y0 = values[idx];
  const s64 y1 = values[idx + 1];
  return y0 + fp::mul_div(y1 - y0, rem, step_num);
}

/// 64-bit-only LUT evaluation, valid when build_arena proved both
/// (n-1)*step_num and max|y1-y0|*(step_num-1) fit in s64 (the bits64 and
/// bits32 tiers; the lanes evaluate the latter on their own): then every
/// intermediate equals the 128-bit version's exactly (div_round and mul_div
/// share the round-to-nearest-ties-away rule), just without the __int128
/// division — which is a libgcc call on x86-64 and dominates tanh layers.
/// Both divisions by step_num go through `div`, a multiply-high divider
/// exact for every u64 numerator, so no hardware divide remains.
inline s64 lut_eval_small(const s64* values, s64 n, s64 lo_q, s64 step_num,
                          const fp::u64_divider& div, s64 x) noexcept {
  using u64 = std::uint64_t;
  if (x <= lo_q) return values[0];
  if (x >= lo_q + step_num) return values[n - 1];
  const s64 scaled = (x - lo_q) * (n - 1);  // in (0, (n-1)*step_num)
  const auto idx = static_cast<s64>(div.divide(static_cast<u64>(scaled)));
  if (idx >= n - 1) return values[n - 1];
  const s64 rem = scaled - idx * step_num;
  const s64 y0 = values[idx];
  const s64 num = (values[idx + 1] - y0) * rem;
  // div_round(num, step_num) on the magnitude: for m >= 0, rounding half
  // away from zero is floor((m + step_num/2) / step_num).  |num| < 2^63 by
  // the fit proof, so the biased numerator stays below 2^64.
  const s64 sign = num >> 63;  // 0 or -1
  const auto mag = static_cast<u64>((num ^ sign) - sign);
  const auto q = static_cast<s64>(
      div.divide(mag + static_cast<u64>(step_num / 2)));
  return y0 + ((q ^ sign) - sign);
}

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
/// A bits32 table as the lanes read it.
struct lane_table {
  const s64* values = nullptr;  ///< lookup_table::guarded_values()
  s64 lo_q = 0;
  s64 span = 0;
  s64 n_minus_1 = 0;
  fp::u32_divider div;  ///< exact for both numerators, see table_tier
};

/// lookup_table::eval on four lanes of a bits32 table, as lut_eval_small
/// computes it.  x is clamped into [lo, lo + span] first, after which the
/// ends need no branch: x = lo gives idx 0 and rem 0, and x = lo + span
/// gives idx n-1 and rem 0, where y1 is the guard entry and weighs nothing.
/// The guard ends the table's own allocation, so that gather stays in it.
/// Every factor fits 32 bits (unsigned for _mm256_mul_epu32, signed for
/// _mm256_mul_epi32) and both numerators stay within the magic's bound.
__attribute__((target("avx2"))) inline __m256i lane_lookup(
    __m256i x, const lane_table& t) noexcept {
  const __m256i lo = _mm256_set1_epi64x(t.lo_q);
  const __m256i hi = _mm256_set1_epi64x(t.lo_q + t.span);
  const __m256i span = _mm256_set1_epi64x(t.span);
  const __m256i magic = _mm256_set1_epi64x(t.div.magic());
  const __m128i shift = _mm_cvtsi32_si128(t.div.shift());
  x = _mm256_blendv_epi8(x, lo, _mm256_cmpgt_epi64(lo, x));
  x = _mm256_blendv_epi8(x, hi, _mm256_cmpgt_epi64(x, hi));
  const __m256i scaled = _mm256_mul_epu32(
      _mm256_sub_epi64(x, lo), _mm256_set1_epi64x(t.n_minus_1));
  const __m256i idx = _mm256_srl_epi64(_mm256_mul_epu32(scaled, magic), shift);
  const __m256i rem = _mm256_sub_epi64(scaled, _mm256_mul_epu32(idx, span));
  const auto* values = reinterpret_cast<const long long*>(t.values);
  const __m256i y0 = _mm256_i64gather_epi64(values, idx, 8);
  const __m256i y1 = _mm256_i64gather_epi64(values + 1, idx, 8);
  // div_round((y1 - y0) * rem, span) on the magnitude, sign restored.
  const __m256i num = _mm256_mul_epi32(_mm256_sub_epi64(y1, y0), rem);
  const __m256i sign = _mm256_cmpgt_epi64(_mm256_setzero_si256(), num);
  const __m256i mag = _mm256_sub_epi64(_mm256_xor_si256(num, sign), sign);
  const __m256i q = _mm256_srl_epi64(
      _mm256_mul_epu32(_mm256_add_epi64(mag, _mm256_set1_epi64x(t.span / 2)),
                       magic),
      shift);
  return _mm256_add_epi64(y0,
                          _mm256_sub_epi64(_mm256_xor_si256(q, sign), sign));
}

/// The scalar epilogue on four accumulators: requantize (round half away
/// on the magnitude, restore the sign; |acc| + half < 2^63 by the
/// no-saturation proof, so the logical shift by `shift` >= 0 is exact),
/// then activate (tanh_act stands for both LUT activations and reads
/// `lut`).
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

/// acc[0..4G) = b[0..4G) + sum_j w[j*stride + 0..4G) * x[j], four 64-bit
/// lanes per group.  _mm256_mul_epi32 multiplies the sign-extended low 32
/// bits of each lane, which is the exact product when both operands fit
/// int32; the no-saturation proof makes the wrapping 64-bit adds exact in
/// any summation order.  Each group then runs lane_epilogue and is stored
/// whole to `out`.  Padding lanes have zero weights and bias; a LUT layer's
/// still look up the table, which the clamp keeps in bounds.
template <nn::activation Act, int G>
__attribute__((target("avx2"))) void mac_i32_groups(
    const s64* w, std::size_t stride, const s64* b, const s64* x,
    std::size_t n, int shift, s64 half, const lane_table& table,
    s64* out) noexcept {
  const lane_table lut = table;  // a local copy: stores to out cannot alias it
  // Fully unrolled over the groups so the accumulators live in registers.
  __m256i a[G];
#pragma GCC unroll 4
  for (int g = 0; g < G; ++g) {
    a[g] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + 4 * g));
  }
  for (std::size_t j = 0; j < n; ++j) {
    const __m256i xj = _mm256_set1_epi64x(x[j]);
    const s64* row = w + j * stride;
#pragma GCC unroll 4
    for (int g = 0; g < G; ++g) {
      const __m256i wj =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + 4 * g));
      a[g] = _mm256_add_epi64(a[g], _mm256_mul_epi32(wj, xj));
    }
  }
  const __m256i h = _mm256_set1_epi64x(half);
  const __m128i count = _mm_cvtsi32_si128(shift);
#pragma GCC unroll 4
  for (int g = 0; g < G; ++g) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4 * g),
                        lane_epilogue<Act>(a[g], h, count, lut));
  }
}

/// Up to 16 outputs (`groups` of 4 lanes) per call, so the accumulators stay
/// in registers and each broadcast input is reused across the groups.
constexpr std::size_t k_block = 16;

template <nn::activation Act>
__attribute__((target("avx2"))) void mac_i32_block(
    const s64* w, std::size_t stride, const s64* b, const s64* x,
    std::size_t n, std::size_t groups, int shift, s64 half,
    const lane_table& lut, s64* out) noexcept {
  switch (groups) {
    case 4:
      mac_i32_groups<Act, 4>(w, stride, b, x, n, shift, half, lut, out);
      break;
    case 3:
      mac_i32_groups<Act, 3>(w, stride, b, x, n, shift, half, lut, out);
      break;
    case 2:
      mac_i32_groups<Act, 2>(w, stride, b, x, n, shift, half, lut, out);
      break;
    default:
      mac_i32_groups<Act, 1>(w, stride, b, x, n, shift, half, lut, out);
      break;
  }
}

/// A layer of `m` outputs (shift >= 0; a bits32 table for tanh_act) on the
/// int32 kernel: each block's 4-lane groups land straight in `out`, which
/// must hold `m` rounded up to whole groups.
template <nn::activation Act>
__attribute__((target("avx2"))) void mac_i32_layer(
    const s64* w, std::size_t stride, const s64* b, const s64* x,
    std::size_t n, std::size_t m, int shift, s64 half, const lane_table& lut,
    s64* out) noexcept {
  for (std::size_t o = 0; o < m; o += k_block) {
    const std::size_t groups = (std::min(k_block, m - o) + 3) / 4;
    mac_i32_block<Act>(w + o, stride, b + o, x, n, groups, shift, half, lut,
                       out + o);
  }
}

/// G consecutive outputs of a layer (w, b and y start at the first) for the
/// 8 samples of a block, whose rows hold one value per sample:
/// y[g*8 + s] = epilogue(b[g] + sum_j w[j*stride + g] * x[j*8 + s]).  Each
/// weight is broadcast to both vectors, and the product is exact as in
/// mac_i32_groups.  Returns the lanes whose stored value left int32 (all
/// ones), for the next layer's operand check; relu outputs are never
/// negative, so only their upper bound is compared.
template <nn::activation Act, int G>
__attribute__((target("avx2"))) __m256i mac_samples_groups(
    const s64* w, std::size_t stride, const s64* b, const s64* x,
    std::size_t n, __m256i half, __m128i shift, const lane_table& table,
    s64* y) noexcept {
  const lane_table lut = table;  // a local copy: stores to y cannot alias it
  __m256i a[G][2];
#pragma GCC unroll 4
  for (int g = 0; g < G; ++g) a[g][0] = a[g][1] = _mm256_set1_epi64x(b[g]);
  for (std::size_t j = 0; j < n; ++j) {
    const auto* xj = reinterpret_cast<const __m256i*>(x + j * k_lanes);
    const __m256i x0 = _mm256_loadu_si256(xj);
    const __m256i x1 = _mm256_loadu_si256(xj + 1);
    const s64* row = w + j * stride;
#pragma GCC unroll 4
    for (int g = 0; g < G; ++g) {
      const __m256i wj = _mm256_set1_epi64x(row[g]);
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
      bad = _mm256_or_si256(bad, _mm256_cmpgt_epi64(r, i32_max));
      if constexpr (Act != nn::activation::relu) {
        bad = _mm256_or_si256(bad, _mm256_cmpgt_epi64(i32_min, r));
      }
    }
  }
  return bad;
}

/// A layer of `m` outputs (shift >= 0; a bits32 table for tanh_act) on the
/// sample lanes: rows x[j*8 + s] for j < n in, y[i*8 + s] for i < m out.
/// False when a stored value left int32.
template <nn::activation Act>
__attribute__((target("avx2"))) bool mac_samples_layer(
    const s64* w, std::size_t stride, const s64* b, const s64* x,
    std::size_t n, std::size_t m, int shift, s64 half, const lane_table& lut,
    s64* y) noexcept {
  const __m256i h = _mm256_set1_epi64x(half);
  const __m128i count = _mm_cvtsi32_si128(shift);
  __m256i bad = _mm256_setzero_si256();
  for (std::size_t o = 0; o < m; o += 4) {
    const s64* wo = w + o;
    const s64* bo = b + o;
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
  const auto padded = [](std::size_t n) { return (n + 3) & ~std::size_t{3}; };
  std::size_t total = 0;
  for (const auto& l : layers) {
    total += (l.input_size + 1) * padded(l.output_size);
  }
  arena_.reserve(total);
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
    // Input-major weights, each input's row padded to whole 4-lane groups
    // (zero weights and biases in the padding lanes): the int32 kernel
    // loads w[j][o..o+3] directly, and the scalar loops and infer() walk
    // neuron i's column w[j*stride + i] in j order.
    d.stride = padded(l.output_size);
    d.weights_off = arena_.size();
    arena_.resize(arena_.size() + l.input_size * d.stride, 0);
    for (std::size_t i = 0; i < l.output_size; ++i) {
      for (std::size_t j = 0; j < l.input_size; ++j) {
        arena_[d.weights_off + j * d.stride + i] =
            l.weights[i * l.input_size + j];
      }
    }
    d.biases_off = arena_.size();
    arena_.insert(arena_.end(), l.biases.begin(), l.biases.end());
    arena_.resize(d.biases_off + d.stride, 0);
    // The table's values and proofs are its own, made once per table.
    if (l.lut) {
      d.lut = l.lut->guarded_values().data();
      d.lut_entries = static_cast<s64>(l.lut->size());
      d.lut_lo_q = l.lut->domain_low_q();
      d.lut_step_num = l.lut->domain_span_q();
      d.tier = l.lut->tier();
      d.lut_div = l.lut->divider();
      d.lut_div32 = l.lut->lane_divider();
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

    // int32 operands: every weight always, the inputs statically when the
    // propagated bound proves it and otherwise by a per-call scan.
    const bool weights_i32 =
        std::all_of(l.weights.begin(), l.weights.end(), fits_i32);
    if (sat_free && weights_i32) {
      d.operands = in_bound <= INT32_MAX ? operand_proof::proven
                                         : operand_proof::per_call;
    }
    // The lanes requantize with the shift and interpolate bits32 tables;
    // any other scale or table (the quantizer emits neither) runs scalar.
    d.simd = d.operands != operand_proof::none && simd_dispatch() &&
             d.shift >= 0 && (!l.lut || d.tier == lut_tier::bits32);

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
  max_width_ = padded(max_width_);
  sample_lanes_ = std::all_of(descs_.begin(), descs_.end(), [](const auto& d) {
    return d.saturation_free && d.simd;
  });
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
  const s64* b = arena_.data() + d.biases_off;
  l.biases.assign(b, b + d.output_size);
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
    const s64* w = arena_.data() + d.weights_off;
    const s64* b = arena_.data() + d.biases_off;
    next.assign(d.output_size, 0);
    for (std::size_t i = 0; i < d.output_size; ++i) {
      // MAC at scale weight_scale * io_scale; biases are pre-scaled to match.
      s64 acc = b[i];
      for (std::size_t j = 0; j < d.input_size; ++j) {
        acc = fp::sat_add(acc, fp::sat_mul(w[j * d.stride + i], cur[j]));
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
    const layer_desc& d, const s64* lut, s64 pre) noexcept {
  if constexpr (Act == nn::activation::linear) {
    return pre;
  } else if constexpr (Act == nn::activation::relu) {
    return pre > 0 ? pre : 0;
  } else {
    return d.tier != lut_tier::bits128
               ? lut_eval_small(lut, d.lut_entries, d.lut_lo_q,
                                d.lut_step_num, d.lut_div, pre)
               : lut_eval_arena(lut, d.lut_entries, d.lut_lo_q,
                                d.lut_step_num, pre);
  }
}

template <bool Saturating, nn::activation Act>
void quantized_mlp::run_layer(const layer_desc& desc, const s64* in,
                              s64* out) const {
  const layer_desc d = desc;  // a local copy: stores to out cannot alias it
  const s64* __restrict w = arena_.data() + d.weights_off;
  const s64* __restrict b = arena_.data() + d.biases_off;
  const s64* lut = d.lut;
  const std::size_t n = d.input_size;
  const std::size_t s = d.stride;
  for (std::size_t i = 0; i < d.output_size; ++i) {
    const s64* __restrict col = w + i;  // neuron i's weight j is col[j * s]
    s64 acc;
    if constexpr (Saturating) {
      acc = b[i];
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
      acc = b[i] + ((a0 + a1) + (a2 + a3));
      for (; j < n; ++j) acc += col[j * s] * in[j];
    }
    out[i] = activate<Act>(d, lut, requantize<Saturating>(d, acc));
  }
}

void quantized_mlp::run(const layer_desc& d, bool in_bounds, const s64* in,
                        s64* out) const {
  using nn::activation;
  const bool fast = in_bounds && d.saturation_free;
#if defined(__x86_64__)
  if (fast && d.simd &&
      (d.operands == operand_proof::proven ||
       all_in_range(in, d.input_size, INT32_MIN, INT32_MAX))) {
    const s64* w = arena_.data() + d.weights_off;
    const s64* b = arena_.data() + d.biases_off;
    const lane_table lut{d.lut, d.lut_lo_q, d.lut_step_num,
                         d.lut_entries - 1, d.lut_div32};
    switch (d.act) {
      case activation::linear:
        return mac_i32_layer<activation::linear>(w, d.stride, b, in,
                                                 d.input_size, d.output_size,
                                                 d.shift, d.half, lut, out);
      case activation::relu:
        return mac_i32_layer<activation::relu>(w, d.stride, b, in,
                                               d.input_size, d.output_size,
                                               d.shift, d.half, lut, out);
      case activation::tanh_act:
      case activation::sigmoid:
        return mac_i32_layer<activation::tanh_act>(w, d.stride, b, in,
                                                   d.input_size,
                                                   d.output_size, d.shift,
                                                   d.half, lut, out);
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
    run(descs_[li], in_bounds, cur, dst);
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
    const s64* w = arena_.data() + d.weights_off;
    const s64* b = arena_.data() + d.biases_off;
    const lane_table lut{d.lut, d.lut_lo_q, d.lut_step_num,
                         d.lut_entries - 1, d.lut_div32};
    switch (d.act) {
      case activation::linear:
        ok = mac_samples_layer<activation::linear>(
            w, d.stride, b, x, d.input_size, d.output_size, d.shift, d.half,
            lut, y);
        break;
      case activation::relu:
        ok = mac_samples_layer<activation::relu>(
            w, d.stride, b, x, d.input_size, d.output_size, d.shift, d.half,
            lut, y);
        break;
      case activation::tanh_act:
      case activation::sigmoid:
        ok = mac_samples_layer<activation::tanh_act>(
            w, d.stride, b, x, d.input_size, d.output_size, d.shift, d.half,
            lut, y);
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
