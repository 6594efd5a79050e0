// Saturating 64-bit integer arithmetic used by the kernel-space snapshot
// engine.  The Linux kernel forbids floating point in most contexts, so the
// generated snapshots (see src/codegen) work exclusively in scaled integers
// ("s64" in kernel parlance).  These helpers centralize the rounding and
// overflow rules so the quantizer, the code generator and the interpreter
// all agree bit-for-bit.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>

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

/// Unsigned division by a divisor fixed ahead of time, done with a multiply-
/// high and shifts instead of a hardware divide (Granlund & Montgomery 1994,
/// in libdivide's u64 form).  Exact for every u64 numerator and every divisor
/// >= 1; powers of two reduce to a shift.
class u64_divider {
 public:
  constexpr u64_divider() noexcept = default;  ///< divides by 1

  explicit constexpr u64_divider(std::uint64_t d) noexcept {
    const int log2_d = d == 0 ? 0 : std::bit_width(d) - 1;
    shift_ = log2_d;
    if ((d & (d - 1)) == 0) return;  // 2^k (or 0, which callers never pass)
    // m = floor(2^(64+log2_d) / d); d is not a power of two, so m < 2^64.
    using u128 = unsigned __int128;
    const u128 num = u128{1} << (64 + log2_d);
    auto m = static_cast<std::uint64_t>(num / d);
    const auto rem = static_cast<std::uint64_t>(num % d);
    // magic = m + 1 overshoots 2^(64+log2_d)/d by e/d, e = d - rem.  While
    // e < 2^log2_d that error never carries into the quotient of a 64-bit
    // numerator.  Otherwise take one more bit: the 65-bit magic
    // floor(2^(65+log2_d)/d) + 1 = 2m + [2*rem >= d] + 1, stored without its
    // top bit, which the add step in divide() supplies.
    if (d - rem >= (std::uint64_t{1} << log2_d)) {
      m += m;
      const u128 twice_rem = u128{rem} * 2;
      if (twice_rem >= d) ++m;
      add_ = true;
    }
    magic_ = m + 1;
  }

  constexpr std::uint64_t divide(std::uint64_t n) const noexcept {
    if (magic_ == 0) return n >> shift_;
    const auto hi = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(magic_) * n) >> 64);
    if (!add_) return hi >> shift_;
    return (((n - hi) >> 1) + hi) >> shift_;
  }

 private:
  std::uint64_t magic_ = 0;  ///< 0 means "power of two: shift only"
  int shift_ = 0;
  bool add_ = false;
};

/// Unsigned division by a fixed divisor d in [1, 2^31) in the form SIMD
/// lanes evaluate: floor(n / d) == (n * magic) >> shift with n and magic
/// below 2^32, so one 32x32->64 multiply (_mm256_mul_epu32) forms the
/// product.  A 32-bit magic is not exact for every u32 numerator, so
/// `for_bound` proves it for the numerators a caller can produce.
class u32_divider {
 public:
  constexpr u32_divider() noexcept = default;  ///< divides by 1

  /// The divider for d when its magic is exact for every n in [0, bound];
  /// nullopt when d is outside [1, 2^31), bound >= 2^32 or the proof fails.
  static constexpr std::optional<u32_divider> for_bound(
      std::uint64_t d, std::uint64_t bound) noexcept {
    if (d == 0 || d > INT32_MAX || bound > UINT32_MAX) return std::nullopt;
    // shift = 31 + ceil(log2 d) keeps magic = ceil(2^shift / d) below 2^32.
    const int shift = 31 + std::bit_width(d - 1);
    const std::uint64_t pow = std::uint64_t{1} << shift;
    const std::uint64_t magic = (pow - 1) / d + 1;
    // magic*d = 2^shift + e with 0 <= e < d, so n*magic/2^shift exceeds n/d
    // by n*e/(d*2^shift), which stays below the 1/d gap to the next integer
    // while n*e < 2^shift.  (bound*e < 2^32 * 2^31 cannot wrap.)
    if (bound * (magic * d - pow) >= pow) return std::nullopt;
    u32_divider div;
    div.magic_ = static_cast<std::uint32_t>(magic);
    div.shift_ = shift;
    return div;
  }

  constexpr std::uint64_t divide(std::uint64_t n) const noexcept {
    return (n * magic_) >> shift_;
  }
  constexpr std::uint32_t magic() const noexcept { return magic_; }
  constexpr int shift() const noexcept { return shift_; }

 private:
  std::uint32_t magic_ = std::uint32_t{1} << 31;
  int shift_ = 31;
};

/// Quantize a double to s64, saturating at the representable range instead of
/// hitting the UB of llround on out-of-range values.  NaN maps to 0.
inline s64 sat_quantize(double v) noexcept {
  // 2^63 is exactly representable as a double; every double below it rounds
  // to an in-range s64 (the nearest doubles are >= 1024 apart up there).
  constexpr double hi = 9223372036854775808.0;  // 2^63
  if (v != v) return 0;
  if (v >= hi) return s64_max;
  if (v < -hi) return s64_min;
  return static_cast<s64>(__builtin_llround(v));
}

}  // namespace lf::fp
