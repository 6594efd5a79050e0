// LiteFlow userspace service (§4.1).
//
// Accepts a user object implementing the three paper interfaces —
//   * NN Freezing Interface      -> freeze_model()
//   * NN Evaluation Interface    -> stability_value() / evaluate()
//   * NN Online Adaptation Intf. -> adapt()
// — and drives the slow path: consume each kernel batch, run online
// adaptation (paying userspace CPU on the shared core), check the sync
// evaluator, and when an update is both correct and necessary, run the
// full snapshot pipeline (freeze -> quantize -> translate -> compile) and
// install it through the standby slot + pointer switch (§3.4).
#pragma once

#include <memory>
#include <string>

#include "core/adaptation_monitor.hpp"
#include "core/batch_collector.hpp"
#include "core/liteflow_core.hpp"
#include "core/sync_evaluator.hpp"
#include "nn/serialize.hpp"

namespace lf::core {

/// The user-implemented side of LiteFlow (a Python class in the paper).
class adaptation_interface {
 public:
  virtual ~adaptation_interface() = default;

  /// NN Freezing Interface: persist the current model; returns the
  /// serialized form (the paper returns a file path; we return content).
  virtual std::string freeze_model() = 0;

  /// NN Evaluation Interface, part 1: a stability metric LiteFlow watches
  /// for convergence (training loss, mean episode reward, ...).
  virtual double stability_value() const = 0;

  /// NN Evaluation Interface, part 2: userspace model output for a given
  /// input (fidelity-loss computation).
  virtual std::vector<double> evaluate(std::span<const double> input) const = 0;

  /// NN Online Adaptation Interface: tune the model with one batch.
  virtual void adapt(std::span<const train_sample> batch) = 0;

  /// Parameter count (for training-cost accounting).
  virtual std::size_t parameter_count() const = 0;
};

/// A sync check evaluates fidelity on at most this many batch samples.
inline constexpr std::size_t k_fidelity_samples = 32;

/// Snapshots are generated with the default quant::quantizer_config.
struct service_config {
  std::string model_name = "model";
  sync_config sync{};
  /// Allow disabling adaptation entirely (the paper's N-O-A ablations).
  bool adaptation_enabled = true;
};

class userspace_service {
 public:
  userspace_service(sim::simulation& sim, kernelsim::cpu_model& cpu,
                    const kernelsim::cost_model& costs,
                    kernelsim::crossspace_channel& netlink,
                    liteflow_core& core, batch_collector& collector,
                    adaptation_interface& user, service_config config);

  /// Generate and install the initial snapshot (v1) and hook the collector.
  void start();

  /// Statistics.
  std::uint64_t batches_processed() const noexcept { return batches_.value(); }
  std::uint64_t snapshot_updates() const noexcept { return updates_.value(); }
  std::uint64_t update_checks() const noexcept { return checks_.value(); }
  std::uint64_t skipped_not_converged() const noexcept {
    return skip_conv_.value();
  }
  std::uint64_t skipped_not_necessary() const noexcept {
    return skip_nec_.value();
  }
  std::uint64_t current_version() const noexcept { return version_; }
  const sync_decision& last_decision() const noexcept { return last_decision_; }
  const service_config& config() const noexcept { return config_; }

  /// Publish slow-path accounting (batches, snapshot updates, sync-evaluator
  /// accept/reject split) plus the last verdict's fidelity gauges
  /// "<prefix>.service.fidelity.{min,mean,max}" under "<prefix>.service.*".
  void register_metrics(metrics::registry& reg, const std::string& prefix);

  /// Attach the adaptation health monitor.  Stores the pointer only when the
  /// monitor is enabled, so a disabled monitor costs one null check per hook
  /// site and a fixed-seed run is bit-for-bit unaffected (the monitor is
  /// strictly read-only).
  void register_monitor(adaptation_monitor& monitor);

  /// Attach the slow-path ring to a trace collector under
  /// "<prefix>.service".  Emits one sync_decision per evaluator verdict
  /// (a: bit0 converged, bit1 necessary; b: min fidelity loss in 1e-9
  /// units) and snapshot_install when a new version ships to the kernel.
  /// The sync_evaluator itself stays clock-free — this service is the
  /// clock-bearing caller that stamps its verdicts, as liteflow_core stamps
  /// the engine's installs and flips.
  void register_trace(trace::collector& col, const std::string& prefix);

 private:
  void on_batch(std::vector<train_sample> batch);
  void maybe_update(std::span<const train_sample> batch);
  void install_snapshot(codegen::snapshot snap);
  double training_cost(std::size_t samples) const noexcept;

  sim::simulation& sim_;
  kernelsim::cpu_model& cpu_;
  const kernelsim::cost_model& costs_;
  kernelsim::crossspace_channel& netlink_;
  liteflow_core& core_;
  batch_collector& collector_;
  adaptation_interface& user_;
  service_config config_;
  sync_evaluator evaluator_;
  std::uint64_t version_ = 0;
  adaptation_monitor* monitor_ = nullptr;  ///< non-null only when enabled
  metrics::counter batches_;
  metrics::counter updates_;
  metrics::counter checks_;
  metrics::counter skip_conv_;
  metrics::counter skip_nec_;
  metrics::gauge fid_min_;
  metrics::gauge fid_mean_;
  metrics::gauge fid_max_;
  trace::ring trace_{"service"};
  sync_decision last_decision_{};
};

}  // namespace lf::core
