#include "core/model_domain.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace lf::core {
namespace {

constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

bool shadow_scorer::sampled(const shadow_config& cfg, model_key m,
                            netsim::flow_id_t flow) noexcept {
  if (cfg.sample_rate <= 0.0) return false;
  if (cfg.sample_rate >= 1.0) return true;
  const std::uint64_t h = splitmix64(cfg.seed ^ composite_flow_key(m, flow));
  // Top 53 bits → uniform double in [0, 1); strict < keeps rate exact at
  // the boundary values tested above.
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // 2^-53
  return u < cfg.sample_rate;
}

void shadow_scorer::record(double divergence,
                           std::uint64_t candidate_gen) noexcept {
  if (candidate_gen == 0 || candidate_gen != bound_gen_) {
    ++gen_drops_;
    return;
  }
  ++samples_;
  sum_ += divergence;
  max_ = std::max(max_, divergence);
}

shadow_verdict shadow_scorer::check(const shadow_config& cfg) const noexcept {
  shadow_verdict v;
  v.samples = samples_;
  v.mean_divergence = mean_divergence();
  v.max_divergence = max_;
  if (!cfg.gate_enabled || !cfg.active()) return v;  // admit by default
  v.admit = samples_ >= cfg.min_samples &&
            v.mean_divergence <= cfg.divergence_threshold;
  return v;
}

void shadow_scorer::reset() noexcept {
  samples_ = 0;
  sum_ = 0.0;
  max_ = 0.0;
  bound_gen_ = 0;
}

double shadow_divergence(std::span<const std::int64_t> active_out,
                         std::int64_t active_scale,
                         std::span<const std::int64_t> shadow_out,
                         std::int64_t shadow_scale) noexcept {
  if (active_out.size() != shadow_out.size() || active_out.empty() ||
      active_scale == 0 || shadow_scale == 0) {
    return std::numeric_limits<double>::infinity();
  }
  const double inv_a = 1.0 / static_cast<double>(active_scale);
  const double inv_s = 1.0 / static_cast<double>(shadow_scale);
  double sum = 0.0;
  for (std::size_t i = 0; i < active_out.size(); ++i) {
    sum += std::abs(static_cast<double>(active_out[i]) * inv_a -
                    static_cast<double>(shadow_out[i]) * inv_s);
  }
  return sum / static_cast<double>(active_out.size());
}

}  // namespace lf::core
