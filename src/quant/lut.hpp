// Integer lookup-table approximation of nonlinear activations (§3.1).
//
// The kernel cannot call tanh(); the paper's snapshot generator replaces such
// layers with a lookup table because (unlike a Taylor expansion) the table
// keeps a uniform precision over its whole domain and evaluates in constant
// time.  We store pre-scaled integer outputs and interpolate linearly between
// entries in integer arithmetic only (eval), which is the arithmetic the
// generated C code performs.  A table whose domain holds at most 2^16
// integers and whose values fit int32 also carries its dense form, eval at
// every integer of the domain, which the interpreter's fast paths read with
// one clamp and one load instead of interpolating.
//
// A table is immutable once built.  The activation tables are interned: a
// process holds one per (activation, entries, scale), shared by every
// program that uses it, and each table carries its dense form and the C's
// interpolation proof, made once when it is built.
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

/// The integer width the emitted C's interpolation provably fits.
enum class lut_tier : std::uint8_t {
  none,     ///< a relu or linear layer: no table
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

  std::size_t size() const noexcept { return values_.size(); }
  s64 scale() const noexcept { return scale_; }
  s64 domain_low_q() const noexcept { return lo_q_; }
  s64 domain_span_q() const noexcept { return step_num_; }
  double domain_low() const noexcept { return lo_; }
  double domain_high() const noexcept { return hi_; }
  /// The size() entries.
  std::span<const s64> values() const noexcept { return values_; }
  /// eval(domain_low_q() + i) for every i in [0, domain_span_q()], so
  /// eval(x) is dense()[clamp(x, lo, lo + span) - lo]; empty unless the
  /// domain holds 2 to 2^16 integers and max_abs() fits int32.
  std::span<const std::int32_t> dense() const noexcept { return dense_; }

  /// The narrowest tier of the C's interpolation that is exact for every
  /// input.
  lut_tier tier() const noexcept { return tier_; }
  /// max |value|: every output of the table is within it.
  std::uint64_t max_abs() const noexcept { return max_abs_; }

 private:
  double lo_;
  double hi_;
  s64 scale_;
  s64 lo_q_;       // lo * scale
  s64 step_num_;   // (hi-lo)*scale, numerator of the step between entries
  std::vector<s64> values_;
  std::vector<std::int32_t> dense_;
  lut_tier tier_ = lut_tier::bits128;
  std::uint64_t max_abs_ = 0;
};

}  // namespace lf::quant
