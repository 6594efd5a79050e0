// Integer lookup-table approximation of nonlinear activations (§3.1).
//
// The kernel cannot call tanh(); the paper's snapshot generator replaces such
// layers with a lookup table because (unlike a Taylor expansion) the table
// keeps a uniform precision over its whole domain and evaluates in constant
// time.  We store pre-scaled integer outputs and interpolate linearly between
// entries using only 64-bit integer arithmetic, so the generated C code and
// this in-memory engine agree exactly.
//
// A table is immutable once built.  The activation tables are interned: a
// process holds one per (activation, entries, scale), shared by every
// program that uses it, and each table carries the interpolation proofs the
// programs' fast paths need, made once when it is built.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "nn/activation.hpp"
#include "util/fixed_point.hpp"

namespace lf::quant {

using fp::s64;

/// The integer width a table's interpolation provably fits.  The scalar
/// path and the C emitter run bits32 tables on the 64-bit chain.
enum class lut_tier : std::uint8_t {
  none,     ///< a relu or linear layer: no table
  bits32,   ///< both numerators fit u32 under an exact 32-bit magic, so the
            ///< AVX2 lanes interpolate (all of the quantizer's tables)
  bits64,   ///< every intermediate fits s64
  bits128,  ///< needs a 128-bit product and quotient
};

class lookup_table {
 public:
  /// Build a table of `entries` samples of `f` over [lo, hi].  Inputs and
  /// outputs are fixed-point integers with scale `scale` (value ~= q/scale).
  /// Inputs outside the domain clamp to the boundary entries, which is the
  /// right behaviour for saturating activations (tanh, sigmoid).
  lookup_table(const std::function<double(double)>& f, double lo, double hi,
               std::size_t entries, s64 scale);

  /// The process's table for a supported activation (tanh, sigmoid): built
  /// when no live holder has this (act, entries, scale), otherwise the one
  /// already held.  Freed with its last holder.  Thread-safe.
  static std::shared_ptr<const lookup_table> for_activation(
      nn::activation act, std::size_t entries, s64 scale);

  /// Integer-only evaluation with linear interpolation between entries.
  s64 eval(s64 x_q) const noexcept;

  /// Evaluate through the table in the float domain (quantize, eval,
  /// dequantize).  Used by precision tests.
  double eval_float(double x) const noexcept;

  /// Maximum absolute error vs. the reference function, probed on a dense
  /// grid of `probes` points across the domain.
  double max_abs_error(const std::function<double(double)>& f,
                       std::size_t probes = 4096) const;

  std::size_t size() const noexcept { return values_.size() - 1; }
  s64 scale() const noexcept { return scale_; }
  s64 domain_low_q() const noexcept { return lo_q_; }
  s64 domain_span_q() const noexcept { return step_num_; }
  double domain_low() const noexcept { return lo_; }
  double domain_high() const noexcept { return hi_; }
  /// The size() entries.
  std::span<const s64> values() const noexcept {
    return {values_.data(), size()};
  }
  /// values() and then a guard entry equal to the last, in one allocation:
  /// the AVX2 lanes gather y1 = values[idx + 1] at idx = size() - 1.
  std::span<const s64> guarded_values() const noexcept { return values_; }

  // The interpolation proofs, made at construction:
  /// The narrowest tier whose proof holds for every input.
  lut_tier tier() const noexcept { return tier_; }
  /// max |value|: every output of the table is within it.
  std::uint64_t max_abs() const noexcept { return max_abs_; }
  /// Divides by domain_span_q() on the 64-bit chain.
  const fp::u64_divider& divider() const noexcept { return div_; }
  /// The same in the lanes; exact for bits32's numerators only.
  const fp::u32_divider& lane_divider() const noexcept { return div32_; }

 private:
  double lo_;
  double hi_;
  s64 scale_;
  s64 lo_q_;       // lo * scale
  s64 step_num_;   // (hi-lo)*scale, numerator of the step between entries
  std::vector<s64> values_;  // the entries, then the guard
  lut_tier tier_ = lut_tier::bits128;
  std::uint64_t max_abs_ = 0;
  fp::u64_divider div_;
  fp::u32_divider div32_;
};

}  // namespace lf::quant
