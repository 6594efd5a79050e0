#include "apps/cc/cc_controllers.hpp"

#include <cmath>

#include "apps/cc/aurora_adapter.hpp"

namespace lf::apps {

feature_history::feature_history(std::size_t k) : k_{k} {
  window_.assign(k_ * transport::k_features_per_interval, 0.0);
  flat_.assign(window_.begin(), window_.end());
}

void feature_history::push(const transport::mi_observation& obs) {
  for (const double f : transport::observation_features(obs)) {
    window_.push_back(f);
  }
  while (window_.size() > k_ * transport::k_features_per_interval) {
    window_.pop_front();
  }
  flat_.assign(window_.begin(), window_.end());
}

// ------------------------------------------------------------- liteflow --

liteflow_cc_controller::liteflow_cc_controller(core::liteflow_core& core,
                                               core::batch_collector* collector,
                                               netsim::flow_id_t flow,
                                               cc_controller_config config)
    : core_{core}, collector_{collector}, flow_{flow}, config_{config},
      history_{config.history} {}

void liteflow_cc_controller::on_monitor_interval(
    const transport::mi_observation& obs,
    std::function<void(double)> set_rate) {
  history_.push(obs);
  const auto& features = history_.features();

  // Slow-path sample: features the snapshot saw + the measurements the
  // tuner needs to re-estimate the environment.
  if (collector_) {
    core::train_sample sample;
    sample.features = features;
    sample.aux = {obs.throughput, obs.send_rate, obs.min_rtt, obs.loss_rate};
    collector_->collect(std::move(sample));
  }

  const fp::s64 scale = core_.active_io_scale();
  if (scale == 0) return;  // nothing installed yet
  std::vector<fp::s64> input(features.size());
  for (std::size_t i = 0; i < features.size(); ++i) {
    input[i] =
        static_cast<fp::s64>(std::llround(features[i] * static_cast<double>(scale)));
  }
  const double send_rate = obs.send_rate;
  core_.query_model(
      flow_, std::move(input),
      [this, send_rate, scale, set_rate = std::move(set_rate)](
          std::vector<fp::s64> out) {
        if (out.empty()) return;
        const double action =
            static_cast<double>(out[0]) / static_cast<double>(scale);
        set_rate(transport::apply_rate_action(send_rate, action,
                                              config_.action_delta,
                                              config_.min_rate_bps,
                                              config_.max_rate_bps));
      });
}

void liteflow_cc_controller::on_flow_close() {
  core_.flow_finished(flow_);
}

// ------------------------------------------------------------------ ccp --

ccp_cc_controller::ccp_cc_controller(sim::simulation& sim,
                                     kernelsim::crossspace_channel& ipc,
                                     const kernelsim::cost_model& costs,
                                     const nn::mlp& model, double interval,
                                     cc_controller_config config)
    : sim_{sim}, ipc_{ipc}, costs_{costs}, model_{model}, interval_{interval},
      config_{config}, history_{config.history} {}

void ccp_cc_controller::on_monitor_interval(
    const transport::mi_observation& obs,
    std::function<void(double)> set_rate) {
  history_.push(obs);
  set_rate_ = std::move(set_rate);
  last_send_rate_ = obs.send_rate;
  if (interval_ <= 0.0) {
    // Per-ACK mode: a decision round trip for every reported interval.
    request_decision();
    return;
  }
  if (!timer_started_) {
    timer_started_ = true;
    sim_.schedule(interval_, [this]() { tick(); });
  }
}

void ccp_cc_controller::tick() {
  if (closed_) return;
  request_decision();
  sim_.schedule(interval_, [this]() { tick(); });
}

void ccp_cc_controller::request_decision() {
  // The kernel side emits a report every interval regardless of whether the
  // agent has answered the previous one — that is precisely what floods
  // softirq in the paper's Fig. 4.  A high safety valve only guards the
  // simulator against unbounded event growth.
  if (closed_ || in_flight_ >= 32) return;
  ++in_flight_;
  // Ship the feature history up; the userspace agent runs the FP32 model.
  const std::size_t bytes = history_.features().size() * sizeof(double);
  const double infer_cost =
      costs_.user_inference_overhead +
      static_cast<double>(model_.parameter_count()) *
          costs_.user_inference_mac_cost;
  ipc_.round_trip(
      bytes, sizeof(double), infer_cost, kernelsim::task_category::user_nn,
      [this](double) {
        if (in_flight_ > 0) --in_flight_;
        if (closed_ || !set_rate_) return;
        ++decisions_;
        const auto out = model_.forward(history_.features());
        set_rate_(transport::apply_rate_action(
            last_send_rate_, out[0], config_.action_delta,
            config_.min_rate_bps, config_.max_rate_bps));
      });
}

void ccp_cc_controller::on_flow_close() {
  closed_ = true;
  set_rate_ = {};
}

// --------------------------------------------------------- kernel train --

kernel_train_controller::kernel_train_controller(
    sim::simulation& sim, kernelsim::cpu_model& cpu,
    const kernelsim::cost_model& costs, nn::mlp& model, double train_interval,
    std::size_t batch_size, cc_controller_config config)
    : sim_{sim}, cpu_{cpu}, costs_{costs}, model_{model},
      train_interval_{train_interval}, batch_size_{batch_size},
      config_{config}, history_{config.history} {}

void kernel_train_controller::on_monitor_interval(
    const transport::mi_observation& obs,
    std::function<void(double)> set_rate) {
  history_.push(obs);
  ++pending_samples_;
  // In-kernel FP inference: the paper notes SIMD/FP use in the kernel
  // carries extra save/restore overhead — modeled as 4x the integer MAC
  // cost — charged to the datapath budget.
  const double infer_cost =
      costs_.snapshot_query_overhead +
      4.0 * static_cast<double>(model_.parameter_count()) *
          costs_.snapshot_mac_cost;
  const auto& features = history_.features();
  cpu_.submit(kernelsim::task_category::datapath, infer_cost,
              [this, features, send_rate = obs.send_rate,
               set_rate = std::move(set_rate)]() {
                if (closed_) return;
                const auto out = model_.forward(features);
                set_rate(transport::apply_rate_action(
                    send_rate, out[0], config_.action_delta,
                    config_.min_rate_bps, config_.max_rate_bps));
              });
  if (!timer_started_) {
    timer_started_ = true;
    sim_.schedule(train_interval_, [this]() { train_tick(); });
  }
}

void kernel_train_controller::train_tick() {
  if (closed_) return;
  // In-kernel mini-batch SGD: gradient math in integer/soft-float is
  // brutally expensive and runs at kernel priority (§2.3).
  const double cost =
      costs_.kernel_train_fixed_cost +
      static_cast<double>(std::min(pending_samples_, batch_size_)) *
          static_cast<double>(model_.parameter_count()) *
          costs_.kernel_train_cost_per_sample_param;
  pending_samples_ = 0;
  ++train_rounds_;
  cpu_.submit(kernelsim::task_category::kernel_train, cost);
  sim_.schedule(train_interval_, [this]() { train_tick(); });
}

void kernel_train_controller::on_flow_close() { closed_ = true; }

}  // namespace lf::apps
