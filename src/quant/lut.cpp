#include "quant/lut.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>

namespace lf::quant {
namespace {

/// What the tier proof and the output bound need of a table's values,
/// gathered in one pass.
struct table_stats {
  __int128 max_abs = 0;   ///< max |v[i]|: the layer's output bound
  __int128 max_pair = 0;  ///< max |v[i+1]| + |v[i]|: bounds bits64's deltas
};

table_stats scan_table(std::span<const s64> values) {
  table_stats t;
  for (std::size_t i = 0; i < values.size(); ++i) {
    t.max_abs = std::max(t.max_abs, fp::abs128(values[i]));
    if (i == 0) continue;
    t.max_pair = std::max(t.max_pair,
                          fp::abs128(values[i]) + fp::abs128(values[i - 1]));
  }
  return t;
}

/// The narrowest tier whose proof holds for a table of `n` entries over a
/// domain `span` wide.
lut_tier table_tier(const table_stats& t, s64 n, s64 span) {
  // bits64: the C's 64-bit chain, (x - lo)*(n-1) and (y1 - y0)*rem, fits s64
  // for any input.
  constexpr __int128 lim = fp::s64_max;
  return static_cast<__int128>(n - 1) * span <= lim &&
                 t.max_pair * (span - 1) <= lim
             ? lut_tier::bits64
             : lut_tier::bits128;
}

/// eval(lo + i) for every i in [0, span] of a table with values `v`, in one
/// pass: x = lo + i sits at i*(n-1) = idx*span + rem, which advances by n-1
/// per step, so an entry costs one 64-bit rounding division where eval
/// divides in 128 bits.  Exact when 1 <= span < 2^16 and every |v| fits
/// int32, so |dy*rem| < 2^48.
std::vector<std::int32_t> tabulate(std::span<const s64> v, s64 span) {
  const auto n1 = static_cast<s64>(v.size()) - 1;
  const s64 idx_step = n1 / span;
  const s64 rem_step = n1 % span;
  std::vector<std::int32_t> dense(static_cast<std::size_t>(span) + 1);
  std::size_t idx = 0;
  s64 rem = 0;
  for (std::size_t i = 0; i + 1 < dense.size(); ++i) {
    const s64 dy = v[idx + 1] - v[idx];
    dense[i] =
        static_cast<std::int32_t>(v[idx] + fp::div_round(dy * rem, span));
    idx += static_cast<std::size_t>(idx_step);
    rem += rem_step;
    if (rem >= span) {
      rem -= span;
      ++idx;
    }
  }
  dense.back() = static_cast<std::int32_t>(v.back());
  return dense;
}

lookup_table build_activation(nn::activation act, std::size_t entries,
                              s64 scale) {
  if (act == nn::activation::tanh_act) {
    // tanh saturates to +-1 outside ~[-8, 8] well below the table's own
    // resolution, so clamping at the boundary entries is exact there.
    return lookup_table{[](double x) { return std::tanh(x); }, -8.0, 8.0,
                        entries, scale};
  }
  return lookup_table{[](double x) { return 1.0 / (1.0 + std::exp(-x)); },
                      -12.0, 12.0, entries, scale};
}

struct table_key {
  nn::activation act;
  std::size_t entries;
  s64 scale;
  auto operator<=>(const table_key&) const = default;
};

/// The live activation tables.  Entries are weak, so a table dies with its
/// last holder; a dead entry is rebuilt on its next lookup.  A table never
/// refers back here, so holders may outlive this map at exit.
struct table_registry {
  std::mutex mu;
  /// guarded by mu
  std::map<table_key, std::weak_ptr<const lookup_table>> tables;
};

}  // namespace

lookup_table::lookup_table(const std::function<double(double)>& f, double lo,
                           double hi, std::size_t entries, s64 scale)
    : lo_{lo}, hi_{hi}, scale_{scale} {
  if (entries < 2) throw std::invalid_argument{"lut needs >= 2 entries"};
  if (hi <= lo) throw std::invalid_argument{"lut needs hi > lo"};
  if (scale <= 0) throw std::invalid_argument{"lut scale must be positive"};
  // sat_quantize rounds as llround does in range, and saturates (NaN to 0)
  // where llround gives INT64_MIN.
  const auto s = static_cast<double>(scale);
  lo_q_ = fp::sat_quantize(lo * s);
  const s64 hi_q = fp::sat_quantize(hi * s);
  if (static_cast<__int128>(hi_q) - lo_q_ > fp::s64_max) {
    throw std::invalid_argument{"lut domain too wide for s64"};
  }
  step_num_ = hi_q - lo_q_;
  values_.reserve(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    const double x = lo + (hi - lo) * static_cast<double>(i) /
                              static_cast<double>(entries - 1);
    values_.push_back(fp::sat_quantize(f(x) * s));
  }
  const table_stats stats = scan_table(values_);
  tier_ = table_tier(stats, static_cast<s64>(entries), step_num_);
  max_abs_ = static_cast<std::uint64_t>(stats.max_abs);
  // span 0 never interpolates, but its dense form would fold x > lo onto
  // x = lo.
  if (step_num_ >= 1 && step_num_ < (s64{1} << 16) && max_abs_ <= INT32_MAX) {
    dense_ = tabulate(values_, step_num_);
  }
}

std::shared_ptr<const lookup_table> lookup_table::for_activation(
    nn::activation act, std::size_t entries, s64 scale) {
  if (act != nn::activation::tanh_act && act != nn::activation::sigmoid) {
    throw std::invalid_argument{"lookup_table only approximates tanh/sigmoid"};
  }
  static table_registry registry;
  const table_key key{act, entries, scale};
  const std::lock_guard lock{registry.mu};
  const auto it = registry.tables.find(key);
  if (it != registry.tables.end()) {
    if (auto live = it->second.lock()) return live;
  }
  // Built under the lock, so concurrent callers of one key share the table.
  auto table = std::make_shared<const lookup_table>(
      build_activation(act, entries, scale));
  registry.tables.insert_or_assign(key, table);
  return table;
}

s64 lookup_table::eval(s64 x_q) const noexcept {
  const auto n = static_cast<s64>(size());
  if (x_q <= lo_q_) return values_.front();
  if (x_q >= lo_q_ + step_num_) return values_.back();
  // Position within the table in units of 1/(n-1) of the domain:
  // pos = (x_q - lo_q) * (n-1) / step_num, with remainder for interpolation.
  const s64 off = x_q - lo_q_;
  const __int128 scaled = static_cast<__int128>(off) * (n - 1);
  auto idx = static_cast<s64>(scaled / step_num_);
  if (idx >= n - 1) return values_.back();
  const auto rem = static_cast<s64>(scaled % step_num_);  // in [0, step_num)
  const s64 y0 = values_[static_cast<std::size_t>(idx)];
  const s64 y1 = values_[static_cast<std::size_t>(idx) + 1];
  return y0 + fp::mul_div(y1 - y0, rem, step_num_);
}

double lookup_table::eval_float(double x) const noexcept {
  // +-inf and out-of-range x clamp to the end entries, NaN reads eval(0).
  const s64 x_q = fp::sat_quantize(x * static_cast<double>(scale_));
  return static_cast<double>(eval(x_q)) / static_cast<double>(scale_);
}

double lookup_table::max_abs_error(const std::function<double(double)>& f,
                                   std::size_t probes) const {
  double worst = 0.0;
  for (std::size_t i = 0; i < probes; ++i) {
    const double x = lo_ + (hi_ - lo_) * static_cast<double>(i) /
                              static_cast<double>(probes - 1);
    worst = std::max(worst, std::abs(eval_float(x) - f(x)));
  }
  return worst;
}

}  // namespace lf::quant
