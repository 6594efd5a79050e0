// One edge-triggered alert rule over one series: the rule engine of both the
// simulated stack's adaptation monitor and the rt engine's anomaly watchdog.
//
// Each observation is compared with a threshold drawn from the rule's
// baseline, an EWMA mean and mean absolute deviation (alpha 0.25):
//   mean' = mean + alpha * (v - mean),  mad' = mad + alpha * (|v - mean| - mad)
// (fixed-threshold rules ignore it).  The first `warmup` observations fold
// into the baseline and never breach.  A breach is never folded: an anomaly
// must not teach the rule that anomalous is normal.  The `fire_after`-th
// consecutive breach fires, once; the rule then stays latched until
// `rearm_after` consecutive clean observations close the run, the last of
// them folding into the baseline.  A clean observation that does not close
// an open run neither folds nor resets it, so isolated dips mid-excursion
// keep the count.  rearm() closes the run explicitly.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lf::metrics {

struct rule_baseline {
  double mean = 0.0;
  double mad = 0.0;
  std::size_t samples = 0;  ///< observations folded in
};

enum class breach_side : std::uint8_t { above, below };

/// One rule, declared constexpr by the monitor that runs it.
struct rule_spec {
  breach_side side = breach_side::above;
  /// The threshold for a baseline.  A below-side rule that does not apply
  /// to a baseline returns -infinity, which nothing falls under.
  double (*threshold)(const rule_baseline&) = nullptr;
  std::size_t warmup = 0;
  std::size_t fire_after = 1;   ///< consecutive breaches to fire (k)
  std::size_t rearm_after = 1;  ///< consecutive clean observations to re-arm
};

class alert_rule {
 public:
  alert_rule() = default;
  explicit alert_rule(const rule_spec& spec) noexcept : spec_{spec} {}

  /// Judge observation `v` made at time `t`; true when it fires the rule.
  /// The accessors below then describe the firing.
  bool observe(double t, double v) noexcept;
  /// Close any open breach run and unlatch, folding nothing.
  void rearm() noexcept;

  const rule_baseline& baseline() const noexcept { return base_; }
  /// Threshold of the latest observation past warmup.
  double threshold() const noexcept { return threshold_; }
  /// Consecutive breaches in the open run (0 when none is open).
  std::size_t breach_run() const noexcept { return breach_run_; }
  double first_breach_t() const noexcept { return first_breach_t_; }

 private:
  rule_spec spec_{};
  rule_baseline base_{};
  double threshold_ = 0.0;
  std::size_t breach_run_ = 0;
  std::size_t clean_run_ = 0;  ///< clean observations inside the open run
  bool latched_ = false;       ///< fired and not yet re-armed
  double first_breach_t_ = 0.0;
};

}  // namespace lf::metrics
