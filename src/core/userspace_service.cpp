#include "core/userspace_service.hpp"

namespace lf::core {

userspace_service::userspace_service(
    sim::simulation& sim, kernelsim::cpu_model& cpu,
    const kernelsim::cost_model& costs, kernelsim::crossspace_channel& netlink,
    liteflow_core& core, batch_collector& collector, adaptation_interface& user,
    service_config config)
    : sim_{sim}, cpu_{cpu}, costs_{costs}, netlink_{netlink}, core_{core},
      collector_{collector}, user_{user}, config_{std::move(config)},
      evaluator_{config_.sync} {}

void userspace_service::start() {
  // Initial deployment: freeze the (pre-trained) model and install v1.
  const auto frozen = user_.freeze_model();
  const auto model = nn::load_mlp_from_string(frozen);
  install_snapshot(
      codegen::generate_snapshot(model, config_.model_name, ++version_));
  collector_.set_consumer(
      [this](std::vector<train_sample> batch) { on_batch(std::move(batch)); });
  collector_.start();
}

double userspace_service::training_cost(std::size_t samples) const noexcept {
  return costs_.user_train_fixed_cost +
         static_cast<double>(samples) *
             static_cast<double>(user_.parameter_count()) *
             costs_.user_train_cost_per_sample_param;
}

void userspace_service::on_batch(std::vector<train_sample> batch) {
  batches_.inc();
  if (monitor_) monitor_->on_batch(sim_.now());
  if (!config_.adaptation_enabled || batch.empty()) return;
  // Slow-path tuning competes for the shared CPU as user_train work; the
  // actual model math runs when the simulated work completes.
  cpu_.submit(kernelsim::task_category::user_train,
              training_cost(batch.size()),
              [this, batch = std::move(batch)]() {
                user_.adapt(batch);
                evaluator_.record_stability(user_.stability_value());
                maybe_update(batch);
              });
}

void userspace_service::maybe_update(std::span<const train_sample> batch) {
  checks_.inc();
  if (core_.active_snapshot() == nullptr) return;

  const auto frozen = user_.freeze_model();
  const auto tuned = nn::load_mlp_from_string(frozen);

  // Fidelity inputs: a prefix of the batch's feature vectors (§3.3 computes
  // L(x) over every x in the delivered batch; we cap for cost).
  std::vector<std::vector<double>> inputs;
  for (const auto& sample : batch) {
    if (inputs.size() >= k_fidelity_samples) break;
    if (sample.features.size() == tuned.input_size()) {
      inputs.push_back(sample.features);
    }
  }
  if (inputs.empty()) return;

  // Computing fidelity needs the *kernel* snapshot's outputs: one netlink
  // round trip ships the inputs down and the outputs back (§4.2).
  const std::size_t bytes = inputs.size() * tuned.input_size() * 8;
  netlink_.round_trip(
      bytes, bytes, 0.0, kernelsim::task_category::user_nn,
      [this, tuned, inputs = std::move(inputs)](double) {
        const codegen::snapshot* snap = core_.active_snapshot();
        if (!snap) return;
        last_decision_ = evaluator_.evaluate(tuned, snap->program, inputs);
        trace_.emit(
            sim_.now(), trace::event_type::sync_decision,
            (last_decision_.converged ? 1u : 0u) |
                (last_decision_.necessary ? 2u : 0u),
            static_cast<std::uint64_t>(last_decision_.fidelity.min_loss * 1e9));
        fid_min_.set(last_decision_.fidelity.min_loss);
        fid_mean_.set(last_decision_.fidelity.mean_loss);
        fid_max_.set(last_decision_.fidelity.max_loss);
        if (monitor_) {
          check_observation obs;
          obs.decision = last_decision_;
          obs.threshold = config_.sync.alpha *
                          (config_.sync.output_max - config_.sync.output_min);
          obs.stability_spread = evaluator_.stability_spread();
          obs.window_full = evaluator_.window_full();
          obs.version = version_;
          monitor_->on_sync_check(sim_.now(), obs);
        }
        if (!last_decision_.converged) {
          skip_conv_.inc();
          return;
        }
        if (!last_decision_.necessary) {
          skip_nec_.inc();
          return;
        }
        // Full §3.1 pipeline on the tuned model.
        install_snapshot(codegen::generate_snapshot(tuned, config_.model_name,
                                                    ++version_));
      });
}

void userspace_service::register_metrics(metrics::registry& reg,
                                         const std::string& prefix) {
  reg.register_counter(prefix + ".service.batches", batches_);
  reg.register_counter(prefix + ".service.snapshot_updates", updates_);
  reg.register_counter(prefix + ".service.sync_checks", checks_);
  reg.register_counter(prefix + ".service.skipped_not_converged", skip_conv_);
  reg.register_counter(prefix + ".service.skipped_not_necessary", skip_nec_);
  reg.register_gauge(prefix + ".service.fidelity.min", fid_min_);
  reg.register_gauge(prefix + ".service.fidelity.mean", fid_mean_);
  reg.register_gauge(prefix + ".service.fidelity.max", fid_max_);
}

void userspace_service::register_monitor(adaptation_monitor& monitor) {
  if (monitor.enabled()) monitor_ = &monitor;
}

void userspace_service::register_trace(trace::collector& col,
                                       const std::string& prefix) {
  col.attach(trace_, prefix + ".service");
}

void userspace_service::install_snapshot(codegen::snapshot snap) {
  const std::size_t param_bytes = snap.program.parameter_bytes();
  const bool is_initial = snap.version <= 1;
  // Ship parameters into the kernel, pay the install cost, then register
  // the module as standby (no lock) and flip the pointer.
  netlink_.send_to_kernel(param_bytes, [this, snap = std::move(snap),
                                        param_bytes, is_initial]() mutable {
    const double install_seconds =
        static_cast<double>(param_bytes) * costs_.snapshot_install_per_byte;
    cpu_.submit(
        kernelsim::task_category::other, install_seconds,
        [this, snap = std::move(snap), is_initial,
         install_seconds]() mutable {
          const std::uint64_t version = snap.version;
          const std::uint64_t gen = core_.register_model(std::move(snap));
          trace_.emit(sim_.now(), trace::event_type::snapshot_install, gen,
                      version);
          // The core fills in the flip's side of the ledger row.
          install_observation obs;
          if (monitor_) {
            const double params =
                static_cast<double>(user_.parameter_count());
            obs.version = version;
            obs.initial = is_initial;
            obs.freeze_seconds = params * costs_.pipeline_freeze_per_param;
            obs.quantize_seconds = params * costs_.pipeline_quantize_per_param;
            obs.translate_seconds =
                params * costs_.pipeline_translate_per_param;
            obs.compile_seconds = costs_.pipeline_compile_fixed +
                                  params * costs_.pipeline_compile_per_param;
            obs.install_seconds = install_seconds;
            // v1 ships before any sync check; its verdict fields stay zero.
            if (!is_initial) obs.fidelity = last_decision_.fidelity;
          }
          core_.switch_active(monitor_ ? &obs : nullptr);
          // The initial deployment is not a "snapshot update" (§3.3 counts
          // only conservative re-syncs).
          if (!is_initial) updates_.inc();
        });
  });
}

}  // namespace lf::core
