#include "apps/sched/flow_sched.hpp"

#include <algorithm>
#include <cmath>

#include "nn/serialize.hpp"

namespace lf::apps {

double encode_flow_size(double bytes) noexcept {
  return std::log10(std::max(bytes, 1.0)) / 10.0;
}

double decode_flow_size(double y) noexcept {
  return std::pow(10.0, std::clamp(y, 0.0, 1.0) * 10.0);
}

std::uint8_t priority_for_predicted_size(double bytes) noexcept {
  if (bytes < 10'000.0) return 1;
  if (bytes <= 100'000.0) return 3;
  return 5;
}

// -------------------------------------------------- flow_context_tracker --

std::vector<double> flow_context_tracker::features(std::size_t src,
                                                   std::size_t dst,
                                                   double now) const {
  std::vector<double> f(k_sched_features, 0.0);
  const auto it = pairs_.find({src, dst});
  if (it != pairs_.end() && it->second.has_history) {
    const auto& ps = it->second;
    f[0] = ps.prev_log_size / 20.0;   // previous size (log, normalized)
    f[1] = ps.ewma_log_size / 20.0;   // pair running mean
    const double gap = ps.last_start >= 0.0 ? now - ps.last_start : 1.0;
    f[2] = std::min(1.0, std::log10(1.0 + gap * 1e3) / 6.0);  // log gap
    f[3] = std::min(1.0, static_cast<double>(ps.flows_seen) / 64.0);
    f[4] = ps.prev_log_size < std::log(10'000.0) ? 1.0 : 0.0;   // prev short
    f[5] = ps.prev_log_size > std::log(100'000.0) ? 1.0 : 0.0;  // prev long
  }
  const auto active_it = active_per_src_.find(src);
  const double active =
      active_it == active_per_src_.end()
          ? 0.0
          : static_cast<double>(active_it->second);
  f[6] = std::min(1.0, active / 32.0);
  f[7] = 1.0;  // bias feature
  return f;
}

void flow_context_tracker::on_flow_start(std::size_t src, std::size_t dst,
                                         double now) {
  pairs_[{src, dst}].last_start = now;
  ++active_per_src_[src];
}

void flow_context_tracker::on_flow_complete(std::size_t src, std::size_t dst,
                                            double, std::uint64_t bytes) {
  auto& ps = pairs_[{src, dst}];
  const double log_size = std::log(static_cast<double>(std::max<std::uint64_t>(bytes, 1)));
  ps.prev_log_size = log_size;
  ps.ewma_log_size =
      ps.has_history ? 0.8 * ps.ewma_log_size + 0.2 * log_size : log_size;
  ps.has_history = true;
  ++ps.flows_seen;
  auto it = active_per_src_.find(src);
  if (it != active_per_src_.end() && it->second > 0) --it->second;
}

// ------------------------------------------------------------ predictors --

liteflow_size_predictor::liteflow_size_predictor(core::liteflow_core& core)
    : core_{core} {}

void liteflow_size_predictor::predict(netsim::flow_id_t flow,
                                      std::vector<double> features,
                                      std::function<void(double)> done) {
  query_model(core_, flow, features,
              [done = std::move(done)](std::vector<double> y) {
                done(y.empty() ? 0.0 : decode_flow_size(y[0]));
              });
}

userspace_size_predictor::userspace_size_predictor(
    kernelsim::crossspace_channel& channel, const kernelsim::cost_model& costs,
    const nn::mlp& model)
    : channel_{channel}, costs_{costs}, model_{model} {}

void userspace_size_predictor::predict(netsim::flow_id_t,
                                       std::vector<double> features,
                                       std::function<void(double)> done) {
  const double infer_cost = costs_.user_inference_overhead +
                            static_cast<double>(model_.parameter_count()) *
                                costs_.user_inference_mac_cost;
  const std::size_t bytes = features.size() * sizeof(double);
  channel_.round_trip(bytes, sizeof(double), infer_cost,
                      kernelsim::task_category::user_nn,
                      [this, features = std::move(features),
                       done = std::move(done)](double) {
                        const auto out = model_.forward(features);
                        done(decode_flow_size(out[0]));
                      });
}

// ----------------------------------------------------- supervised_adapter --

supervised_adapter::supervised_adapter(nn::mlp model, double learning_rate,
                                       std::size_t epochs_per_batch,
                                       std::uint64_t seed)
    : model_{std::move(model)},
      trainer_{model_, nn::loss_kind::mse,
               std::make_unique<nn::adam>(learning_rate)},
      epochs_{epochs_per_batch}, gen_{seed} {}

std::string supervised_adapter::freeze_model() {
  return nn::save_mlp_to_string(model_);
}

double supervised_adapter::stability_value() const { return last_loss_; }

std::vector<double> supervised_adapter::evaluate(
    std::span<const double> input) const {
  return model_.forward(input);
}

std::size_t supervised_adapter::parameter_count() const {
  return model_.parameter_count();
}

void supervised_adapter::adapt(std::span<const core::train_sample> batch) {
  std::vector<nn::training_sample> data;
  data.reserve(batch.size());
  const std::size_t out_size = model_.output_size();
  for (const auto& sample : batch) {
    if (sample.features.size() != model_.input_size() ||
        sample.aux.size() < out_size) {
      continue;
    }
    nn::training_sample ts;
    ts.input = sample.features;
    ts.target.assign(sample.aux.begin(), sample.aux.begin() + out_size);
    data.push_back(std::move(ts));
  }
  if (data.empty()) return;
  nn::train_report report{};
  for (std::size_t e = 0; e < epochs_; ++e) {
    report = trainer_.train_batch(data);
  }
  last_loss_ = report.mean_loss;
}

void supervised_adapter::pretrain(std::span<const nn::training_sample> dataset,
                                  std::size_t epochs) {
  if (dataset.empty()) return;
  // Shuffled mini-batch SGD: one optimizer step per 32-sample slice, many
  // steps per epoch (one full-batch step per epoch converges far too
  // slowly for the parameter travel these models need).
  constexpr std::size_t k_minibatch = 32;
  std::vector<nn::training_sample> shuffled(dataset.begin(), dataset.end());
  for (std::size_t e = 0; e < epochs; ++e) {
    gen_.shuffle(shuffled);
    double epoch_loss = 0.0;
    std::size_t steps = 0;
    for (std::size_t off = 0; off < shuffled.size(); off += k_minibatch) {
      const auto n = std::min(k_minibatch, shuffled.size() - off);
      const auto report = trainer_.train_batch(
          std::span<const nn::training_sample>{shuffled}.subspan(off, n));
      epoch_loss += report.mean_loss;
      ++steps;
    }
    last_loss_ = epoch_loss / static_cast<double>(steps);
  }
}

// ----------------------------------------------- correlated_size_process --

correlated_size_process::correlated_size_process(std::size_t hosts, double rho,
                                                 std::uint64_t seed)
    : hosts_{hosts}, rho_{rho}, gen_{seed} {}

double correlated_size_process::draw_mu() {
  // Bimodal application mix: "RPC-ish" pairs around ~5KB, "data-ish" pairs
  // around ~500KB (log-space means).
  return gen_.bernoulli(0.6) ? std::log(5'000.0) : std::log(500'000.0);
}

correlated_size_process::pair_proc& correlated_size_process::at(
    std::size_t src, std::size_t dst) {
  auto [it, inserted] = pairs_.try_emplace({src, dst});
  if (inserted) {
    it->second.mu = draw_mu();
  }
  return it->second;
}

std::uint64_t correlated_size_process::next_size(std::size_t src,
                                                 std::size_t dst) {
  auto& proc = at(src, dst);
  double log_size;
  if (!proc.started) {
    log_size = proc.mu + sigma_ * gen_.normal();
    proc.started = true;
  } else {
    log_size = proc.mu + rho_ * (proc.prev - proc.mu) +
               sigma_ * std::sqrt(1.0 - rho_ * rho_) * gen_.normal();
  }
  proc.prev = log_size;
  const double bytes = std::exp(std::clamp(log_size, std::log(200.0),
                                           std::log(50e6)));
  return static_cast<std::uint64_t>(bytes);
}

void correlated_size_process::shift_pattern() {
  for (auto& [key, proc] : pairs_) {
    proc.mu = draw_mu();
    proc.started = false;
  }
}

}  // namespace lf::apps
