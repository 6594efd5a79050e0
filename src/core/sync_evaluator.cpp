#include "core/sync_evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lf::core {

sync_evaluator::sync_evaluator(sync_config config) : config_{config} {
  if (config_.output_max <= config_.output_min) {
    throw std::invalid_argument{"sync_evaluator: Omax must exceed Omin"};
  }
}

void sync_evaluator::record_stability(double value) {
  history_.push_back(value);
  while (history_.size() > k_stability_window) history_.pop_front();
}

double sync_evaluator::stability_spread() const {
  if (history_.size() < 2) return 0.0;
  const auto [lo, hi] = std::minmax_element(history_.begin(), history_.end());
  // Normalize by the window's magnitude, not its mean: a stability metric
  // oscillating around zero (e.g. mean reward of ±0.01) has a near-zero
  // mean, and (max-min)/|mean| blows up — convergence would be
  // undeclarable no matter how tight the oscillation.  The extreme
  // magnitude max(|max|, |min|) is spread-stable at every operating point.
  const double denom = std::max({std::abs(*hi), std::abs(*lo), 1e-9});
  return (*hi - *lo) / denom;
}

bool sync_evaluator::converged() const {
  return window_full() && stability_spread() < k_stability_threshold;
}

sync_decision sync_evaluator::evaluate(
    const nn::mlp& tuned, const quant::quantized_mlp& installed,
    std::span<const std::vector<double>> batch_inputs) const {
  sync_decision decision;
  decision.converged = converged();
  decision.fidelity = quant::evaluate_fidelity(tuned, installed, batch_inputs);
  decision.necessary =
      quant::update_necessary(decision.fidelity, config_.alpha,
                              config_.output_min, config_.output_max);
  return decision;
}

}  // namespace lf::core
