// Saturating 64-bit integer arithmetic used by the kernel-space snapshot
// engine.  The Linux kernel forbids floating point in most contexts, so the
// generated snapshots (see src/codegen) work exclusively in scaled integers
// ("s64" in kernel parlance).  These helpers centralize the rounding and
// overflow rules so the quantizer, the code generator and the interpreter
// all agree bit-for-bit.
#pragma once

#include <cstdint>
#include <limits>

namespace lf::fp {

using s64 = std::int64_t;

inline constexpr s64 s64_max = std::numeric_limits<s64>::max();
inline constexpr s64 s64_min = std::numeric_limits<s64>::min();

/// Saturating addition.
constexpr s64 sat_add(s64 a, s64 b) noexcept {
  s64 r = 0;
  if (__builtin_add_overflow(a, b, &r)) return b > 0 ? s64_max : s64_min;
  return r;
}

/// Saturating subtraction.
constexpr s64 sat_sub(s64 a, s64 b) noexcept {
  s64 r = 0;
  if (__builtin_sub_overflow(a, b, &r)) return b < 0 ? s64_max : s64_min;
  return r;
}

/// Saturating multiplication.
constexpr s64 sat_mul(s64 a, s64 b) noexcept {
  s64 r = 0;
  if (__builtin_mul_overflow(a, b, &r)) {
    return ((a > 0) == (b > 0)) ? s64_max : s64_min;
  }
  return r;
}

/// Division rounding to nearest, ties away from zero. Divisor must be != 0.
/// Total for all (num, den) pairs: s64_min / -1 saturates to s64_max, and the
/// round-away test is written subtraction-style so it cannot overflow even
/// when |den| > s64_max / 2 (agrees with mul_div(num, 1, den) everywhere).
constexpr s64 div_round(s64 num, s64 den) noexcept {
  if (num == s64_min && den == -1) return s64_max;
  const s64 q = num / den;
  const s64 rem = num % den;
  if (rem == 0) return q;
  // |rem|*2 >= |den| -> round away from zero.  Magnitudes are taken in u64
  // (|s64_min| = 2^63 fits) and compared as |rem| >= |den| - |rem|, which
  // cannot wrap since 0 < |rem| < |den|.
  const auto mag = [](s64 v) {
    return v < 0 ? 0 - static_cast<std::uint64_t>(v)
                 : static_cast<std::uint64_t>(v);
  };
  if (mag(rem) >= mag(den) - mag(rem)) {
    return ((num < 0) == (den < 0)) ? q + 1 : q - 1;
  }
  return q;
}

/// Floor division (rounds toward negative infinity). Divisor must be > 0.
constexpr s64 div_floor(s64 num, s64 den) noexcept {
  const s64 q = num / den;
  const s64 rem = num % den;
  return (rem != 0 && rem < 0) ? q - 1 : q;
}

/// Clamp into [lo, hi].
constexpr s64 clamp(s64 x, s64 lo, s64 hi) noexcept {
  return x < lo ? lo : (x > hi ? hi : x);
}

/// Multiply then divide with 128-bit intermediate: (a * b) / den, rounded to
/// nearest.  This is the core op of requantization between layers.
constexpr s64 mul_div(s64 a, s64 b, s64 den) noexcept {
  const __int128 prod = static_cast<__int128>(a) * b;
  const __int128 d = den;
  __int128 q = prod / d;
  const __int128 rem = prod % d;
  __int128 abs_rem = rem < 0 ? -rem : rem;
  __int128 abs_d = d < 0 ? -d : d;
  if (abs_rem * 2 >= abs_d) q += ((prod < 0) == (d < 0)) ? 1 : -1;
  if (q > s64_max) return s64_max;
  if (q < s64_min) return s64_min;
  return static_cast<s64>(q);
}

/// |v| without overflow (|s64_min| = 2^63).
constexpr __int128 abs128(s64 v) noexcept {
  return v < 0 ? -static_cast<__int128>(v) : static_cast<__int128>(v);
}

/// Quantize a double to s64, rounding to nearest with ties away from zero
/// as llround does, but saturating at the representable range instead of
/// hitting llround's UB on out-of-range values.  NaN maps to 0.
constexpr s64 sat_quantize(double v) noexcept {
  // 2^63 is exactly representable as a double; every double below it rounds
  // to an in-range s64 (the nearest doubles are >= 1024 apart up there).
  constexpr double hi = 9223372036854775808.0;  // 2^63
  if (v != v) return 0;
  if (v >= hi) return s64_max;
  if (v < -hi) return s64_min;
  // Rounded inline, where llround is a libm call.  The cast truncates toward
  // zero, and v - trunc(v) is exact: below 2^52 it is v's fraction, and from
  // 2^52 up every double is an integer and the remainder is 0.  So a
  // remainder of at least one half moves i one step away from zero, which
  // cannot overflow.
  const auto i = static_cast<s64>(v);
  const double rem = v - static_cast<double>(i);
  return i + (rem >= 0.5) - (rem <= -0.5);
}

}  // namespace lf::fp
