#include "apps/lb/load_balance.hpp"

#include <algorithm>
#include <cmath>

namespace lf::apps {

path_stats_tracker::path_stats_tracker(std::size_t paths)
    : per_path_(paths) {
  if (paths == 0) throw std::invalid_argument{"path_stats_tracker: 0 paths"};
}

void path_stats_tracker::on_ack(std::uint32_t path_tag,
                                const transport::ack_event& ev) {
  if (path_tag == 0 || path_tag > per_path_.size()) return;
  auto& p = per_path_[path_tag - 1];
  const double g = 0.1;
  p.ecn_ewma = (1.0 - g) * p.ecn_ewma + g * (ev.ecn_echo ? 1.0 : 0.0);
  if (ev.rtt > 0.0) {
    p.rtt_ewma = p.seen ? (1.0 - g) * p.rtt_ewma + g * ev.rtt : ev.rtt;
    min_rtt_ = min_rtt_ == 0.0 ? ev.rtt : std::min(min_rtt_, ev.rtt);
  }
  p.bytes_ewma = (1.0 - g) * p.bytes_ewma +
                 g * static_cast<double>(ev.newly_acked_bytes);
  p.seen = true;
}

std::vector<double> path_stats_tracker::features() const {
  std::vector<double> f;
  f.reserve(per_path_.size() * 3);
  for (const auto& p : per_path_) {
    f.push_back(p.ecn_ewma);
    // Normalized queueing delay: rtt / min_rtt - 1, clamped to [0, 1].
    double rtt_norm = 0.0;
    if (p.seen && min_rtt_ > 0.0) {
      rtt_norm = std::clamp(p.rtt_ewma / min_rtt_ - 1.0, 0.0, 1.0);
    }
    f.push_back(rtt_norm);
    f.push_back(std::min(1.0, p.bytes_ewma / (64.0 * 1460.0)));
  }
  return f;
}

std::uint32_t weighted_path_choice(std::span<const double> scores, rng& gen) {
  // Shift so the worst path still has a small positive weight, then sharpen
  // the preference by squaring: clearly-better paths dominate, ties split.
  double lo = scores[0];
  for (const double v : scores) lo = std::min(lo, v);
  std::vector<double> w(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const double shifted = scores[i] - lo + 0.05;
    w[i] = shifted * shifted;
  }
  return static_cast<std::uint32_t>(gen.weighted_index(w)) + 1;
}

liteflow_path_selector::liteflow_path_selector(core::liteflow_core& core,
                                               std::size_t paths,
                                               std::uint64_t seed)
    : core_{core}, paths_{paths}, gen_{seed} {}

void liteflow_path_selector::select(netsim::flow_id_t flow,
                                    std::vector<double> features,
                                    std::function<void(std::uint32_t)> done) {
  query_model(core_, flow, features,
              [this, done = std::move(done)](std::vector<double> scores) {
                done(scores.empty() ? 0 : weighted_path_choice(scores, gen_));
              });
}

userspace_path_selector::userspace_path_selector(
    kernelsim::crossspace_channel& channel, const kernelsim::cost_model& costs,
    const nn::mlp& model, std::uint64_t seed)
    : channel_{channel}, costs_{costs}, model_{model}, gen_{seed} {}

void userspace_path_selector::select(netsim::flow_id_t,
                                     std::vector<double> features,
                                     std::function<void(std::uint32_t)> done) {
  const double infer_cost = costs_.user_inference_overhead +
                            static_cast<double>(model_.parameter_count()) *
                                costs_.user_inference_mac_cost;
  const std::size_t bytes = features.size() * sizeof(double);
  channel_.round_trip(
      bytes, sizeof(std::uint32_t), infer_cost,
      kernelsim::task_category::user_nn,
      [this, features = std::move(features), done = std::move(done)](double) {
        const auto out = model_.forward(features);
        done(weighted_path_choice(out, gen_));
      });
}

std::vector<nn::training_sample> make_lb_pretrain_dataset(std::size_t paths,
                                                          std::size_t samples,
                                                          std::uint64_t seed) {
  rng gen{seed};
  std::vector<nn::training_sample> data;
  data.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    nn::training_sample ts;
    ts.input.reserve(paths * 3);
    ts.target.reserve(paths);
    for (std::size_t p = 0; p < paths; ++p) {
      const double ecn = gen.uniform(0.0, 1.0);
      const double rtt_norm = gen.uniform(0.0, 1.0);
      const double util = gen.uniform(0.0, 1.0);
      ts.input.push_back(ecn);
      ts.input.push_back(rtt_norm);
      ts.input.push_back(util);
      ts.target.push_back(1.0 - 0.7 * ecn - 0.3 * rtt_norm);
    }
    data.push_back(std::move(ts));
  }
  return data;
}

}  // namespace lf::apps
