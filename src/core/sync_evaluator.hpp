// NN synchronization evaluation (§3.3): decide whether to push the tuned
// userspace model into the kernel.
//
// Correctness: the snapshot must come from a *converged* model — LiteFlow
// watches a user-defined stability metric (training loss / mean reward) and
// declares convergence when its recent relative spread is small.  Updating
// from a mid-exploration model would install garbage (Fig. 8).
//
// Necessity: updates interfere with the datapath (locks, §3.4), so sync
// only when the models have drifted apart: the *minimum* fidelity loss
// L(x) = |f'(x) - f(x)| over the batch must exceed alpha * (Omax - Omin)
// (the paper sets alpha to 5%).
#pragma once

#include <deque>

#include "quant/fidelity.hpp"

namespace lf::core {

/// Convergence: the last k_stability_window stability samples must spread
/// (relatively) less than k_stability_threshold.
inline constexpr double k_stability_threshold = 0.25;
inline constexpr std::size_t k_stability_window = 10;

struct sync_config {
  double alpha = 0.05;               ///< necessity threshold factor
  double output_min = -1.0;          ///< Omin of the NN
  double output_max = 1.0;           ///< Omax of the NN
};

struct sync_decision {
  bool converged = false;
  bool necessary = false;
  quant::fidelity_report fidelity{};
  bool should_update() const noexcept { return converged && necessary; }
};

class sync_evaluator {
 public:
  explicit sync_evaluator(sync_config config);

  /// Feed the user metric (NN Evaluation Interface, stability value).
  void record_stability(double value);

  /// Correctness check only.
  bool converged() const;

  /// Relative spread (max - min) / max(|max|, |min|, eps) of the recorded
  /// stability samples; 0 with fewer than two samples.  converged() is
  /// "window full && spread below k_stability_threshold".  Normalizing by
  /// the extreme magnitude (not |mean|) keeps convergence declarable when
  /// the metric oscillates tightly around zero.
  double stability_spread() const;

  /// Full decision for a candidate update.
  sync_decision evaluate(const nn::mlp& tuned,
                         const quant::quantized_mlp& installed,
                         std::span<const std::vector<double>> batch_inputs) const;

 private:
  sync_config config_;
  std::deque<double> history_;
};

}  // namespace lf::core
