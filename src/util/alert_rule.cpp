#include "util/alert_rule.hpp"

#include <cmath>

namespace lf::metrics {

bool alert_rule::observe(double t, double v) noexcept {
  bool breach = false;
  if (base_.samples >= spec_.warmup) {
    threshold_ = spec_.threshold(base_);
    breach = spec_.side == breach_side::above ? v > threshold_
                                              : v < threshold_;
  }
  if (!breach) {
    if (breach_run_ > 0 && ++clean_run_ < spec_.rearm_after) return false;
    constexpr double alpha = 0.25;
    if (base_.samples++ == 0) {
      base_.mean = v;
    } else {
      base_.mad += alpha * (std::abs(v - base_.mean) - base_.mad);
      base_.mean += alpha * (v - base_.mean);
    }
    rearm();
    return false;
  }
  clean_run_ = 0;
  if (breach_run_++ == 0) first_breach_t_ = t;
  if (breach_run_ < spec_.fire_after || latched_) return false;
  latched_ = true;
  return true;
}

void alert_rule::rearm() noexcept {
  breach_run_ = 0;
  clean_run_ = 0;
  latched_ = false;
}

}  // namespace lf::metrics
