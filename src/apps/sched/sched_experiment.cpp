#include "apps/sched/sched_experiment.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "apps/sched/flow_sched.hpp"
#include "netsim/topology.hpp"
#include "netsim/workload.hpp"
#include "nn/serialize.hpp"
#include "transport/dctcp.hpp"
#include "transport/window_sender.hpp"

namespace lf::apps {
namespace {

using netsim::flow_id_t;

/// Everything one sender host carries for its deployment flavour.
struct host_deployment {
  std::unique_ptr<supervised_adapter> adapter;
  std::unique_ptr<liteflow_stack> lf;      // liteflow modes
  std::unique_ptr<kernelsim::crossspace_channel> channel;  // userspace modes
  std::unique_ptr<size_predictor> predictor;
  flow_context_tracker tracker;
  // Userspace modes still ship labels up in batches for adaptation.
  std::vector<core::train_sample> pending_labels;
};

struct live_flow {
  std::size_t src = 0;
  std::size_t dst = 0;
  std::uint64_t size = 0;
  double arrival = 0.0;
  std::vector<double> features;
  std::unique_ptr<transport::window_sender> sender;
};

nn::mlp pretrained_ffnn(const sched_experiment_config& config) {
  // Build a synthetic (features, encoded size) dataset by replaying the
  // same AR(1) size process through a context tracker, then train.
  rng gen{config.seed + 1000};
  correlated_size_process sizes{config.hosts_per_leaf * 2,
                                config.size_correlation, config.seed + 2000};
  flow_context_tracker tracker;
  std::vector<nn::training_sample> dataset;
  const std::size_t hosts = config.hosts_per_leaf * 2;
  double now = 0.0;
  for (std::size_t i = 0; i < config.pretrain_flows; ++i) {
    const auto src = static_cast<std::size_t>(gen.uniform_int(0, static_cast<std::int64_t>(hosts) - 1));
    auto dst = static_cast<std::size_t>(gen.uniform_int(0, static_cast<std::int64_t>(hosts) - 2));
    if (dst >= src) ++dst;
    now += gen.exponential(config.arrival_rate);
    const auto size = sizes.next_size(src, dst);
    nn::training_sample ts;
    ts.input = tracker.features(src, dst, now);
    // Live hosts carry a varying number of in-flight flows; the replay
    // completes each flow immediately, so emulate that feature's live
    // distribution instead of letting the net overfit to "always zero".
    ts.input[6] = gen.uniform(0.0, 0.2);
    ts.target = {encode_flow_size(static_cast<double>(size))};
    dataset.push_back(std::move(ts));
    tracker.on_flow_start(src, dst, now);
    tracker.on_flow_complete(src, dst, now, size);
  }
  // The FFNN is tiny (5/5 ReLU) and its inputs are non-negative, so an
  // unlucky init can leave the first layer dead and the model collapses to
  // the target mean.  Train with a few random restarts and keep the best.
  std::unique_ptr<nn::mlp> best;
  double best_loss = std::numeric_limits<double>::infinity();
  for (std::uint64_t attempt = 0; attempt < 5; ++attempt) {
    rng init{config.seed + 3000 + attempt * 7919};
    supervised_adapter warmup{nn::make_ffnn_flow_size_net(init), 3e-3, 1,
                              config.seed + attempt};
    warmup.pretrain(dataset, config.pretrain_epochs);
    if (warmup.last_loss() < best_loss) {
      best_loss = warmup.last_loss();
      best = std::make_unique<nn::mlp>(warmup.model());
    }
    if (best_loss < 0.004) break;  // clearly better than mean-only (~0.01)
  }
  return *best;
}

/// Spine-leaf flow-scheduling run (Figs. 15/16) through the shared driver.
class sched_fct_experiment final : public experiment {
 public:
  explicit sched_fct_experiment(const sched_experiment_config& config)
      : config_{config} {
    driver_.name = std::string{to_string(config.deployment)};
    driver_.seed = config.seed;
    driver_.slice = 0.25;
    driver_.max_sim_time = config.max_sim_time;
  }

  const driver_config& config() const override { return driver_; }

  void setup(driver_context& ctx) override {
    sim_ = &ctx.sim;
    sim::simulation& simu = ctx.sim;
    netsim::spine_leaf_config topo_config;
    topo_config.hosts_per_leaf = config_.hosts_per_leaf;
    topo_config.host_bps = config_.host_bps;
    topo_config.fabric_bps = config_.fabric_bps;
    topo_config.cpu_gating = config_.cpu_gating;
    topo_.emplace(simu, topo_config);
    const std::size_t hosts = topo_->host_count();

    // Shared pretrained weights, copied into each host's deployment.
    needs_model_ = config_.deployment != sched_deployment::no_prediction &&
                   config_.deployment != sched_deployment::oracle;
    std::string frozen;
    if (needs_model_) {
      frozen = nn::save_mlp_to_string(pretrained_ffnn(config_));
    }

    deploy_.resize(hosts);
    for (std::size_t h = 0; h < hosts && needs_model_; ++h) {
      auto& d = deploy_[h];
      auto& host = topo_->host_at(h);
      d.adapter = std::make_unique<supervised_adapter>(
          nn::load_mlp_from_string(frozen), 3e-3, 4, config_.seed + h);
      switch (config_.deployment) {
        case sched_deployment::liteflow:
        case sched_deployment::liteflow_noa: {
          liteflow_stack_options opts;
          opts.model_name = "ffnn";
          opts.batch_interval = config_.batch_interval;
          opts.adaptation = config_.deployment == sched_deployment::liteflow;
          // FFNN outputs live in (0, 1); necessity threshold scales with it.
          opts.sync.output_min = 0.0;
          opts.sync.output_max = 1.0;
          d.lf = std::make_unique<liteflow_stack>(host, *d.adapter, opts);
          d.lf->start();
          d.predictor =
              std::make_unique<liteflow_size_predictor>(d.lf->core());
          break;
        }
        case sched_deployment::chardev:
        case sched_deployment::netlink_dev:
          d.channel = std::make_unique<kernelsim::crossspace_channel>(
              simu, host.cpu(), host.costs(),
              config_.deployment == sched_deployment::chardev
                  ? kernelsim::channel_kind::char_device
                  : kernelsim::channel_kind::netlink);
          d.predictor = std::make_unique<userspace_size_predictor>(
              *d.channel, host.costs(), d.adapter->model());
          batch_labels_to_userspace(host, *d.channel, *d.adapter,
                                    d.pending_labels, config_.batch_interval);
          break;
        case sched_deployment::no_prediction:
        case sched_deployment::oracle:
          break;
      }
    }

    sizes_.emplace(hosts, config_.size_correlation, config_.seed + 4000);
    if (config_.pattern_shift_period > 0.0) {
      simu.schedule_every(config_.pattern_shift_period,
                          config_.pattern_shift_period,
                          [this]() { sizes_->shift_pattern(); });
    }

    flows_.reserve(config_.total_flows);

    rng arrival_gen{config_.seed + 5000};
    double next_arrival = 0.0;

    // Open-loop Poisson arrivals, precomputed so we can cap total flows.
    plan_.reserve(config_.total_flows);
    for (std::size_t i = 0; i < config_.total_flows; ++i) {
      next_arrival += arrival_gen.exponential(config_.arrival_rate);
      const auto src = static_cast<std::size_t>(
          arrival_gen.uniform_int(0, static_cast<std::int64_t>(hosts) - 1));
      auto dst = static_cast<std::size_t>(
          arrival_gen.uniform_int(0, static_cast<std::int64_t>(hosts) - 2));
      if (dst >= src) ++dst;
      plan_.push_back({next_arrival, src, dst});
    }

    for (const auto& ap : plan_) {
      simu.schedule_at(ap.t, [this, ap]() { start_flow(ap); });
    }

    register_spine_leaf_telemetry(
        ctx, *topo_, "sched",
        [this](std::size_t h) { return deploy_[h].lf.get(); });
  }

  bool finished() const override { return fct_.completed() >= plan_.size(); }

  void report(driver_context&, run_result& out) override {
    fct_.report(out);
    for (auto& d : deploy_) {
      if (d.lf) out.snapshot_updates += d.lf->service().snapshot_updates();
    }
  }

  /// Move the prediction-quality extras into the legacy result shape.
  void take_extras(sched_result& out) {
    out.mean_prediction_latency = pred_latency_.mean();
    out.mean_abs_log_error = pred_error_.mean();
    out.prediction_latencies = std::move(prediction_latencies_);
    out.predictions = std::move(predictions_);
  }

 private:
  struct arrival_plan {
    double t;
    std::size_t src;
    std::size_t dst;
  };

  void start_flow(const arrival_plan& ap) {
    sim::simulation& simu = *sim_;
    auto flow = std::make_unique<live_flow>();
    flow->src = ap.src;
    flow->dst = ap.dst;
    flow->size = sizes_->next_size(ap.src, ap.dst);
    flow->arrival = simu.now();
    auto& d = deploy_[ap.src];
    auto& src_host = topo_->host_at(ap.src);
    const flow_id_t id = next_flow_++;
    flow->features = needs_model_
                         ? d.tracker.features(ap.src, ap.dst, simu.now())
                         : std::vector<double>{};
    d.tracker.on_flow_start(ap.src, ap.dst, simu.now());

    live_flow* f = flow.get();
    flows_.push_back(std::move(flow));

    auto launch = [this, &simu, &src_host, f, id](std::uint8_t priority) {
      transport::window_sender_config wc;
      wc.priority = priority;
      f->sender = std::make_unique<transport::window_sender>(
          src_host, static_cast<netsim::host_id_t>(f->dst), id, f->size, wc,
          std::make_unique<transport::dctcp>());
      f->sender->set_done([this, &simu, f](double) {
        // FCT counts from arrival, so prediction latency (the tagging
        // happens before the first packet) is part of the completion time.
        fct_.record(f->size, simu.now() - f->arrival);
        auto& dd = deploy_[f->src];
        dd.tracker.on_flow_complete(f->src, f->dst, simu.now(), f->size);
        if (needs_model_) {
          core::train_sample label;
          label.features = f->features;
          label.aux = {encode_flow_size(static_cast<double>(f->size))};
          if (dd.lf) {
            dd.lf->collector().collect(std::move(label));
          } else if (dd.channel) {
            dd.pending_labels.push_back(std::move(label));
          }
        }
      });
      f->sender->start();
    };

    if (config_.deployment == sched_deployment::no_prediction) {
      launch(k_unknown_priority);
    } else if (config_.deployment == sched_deployment::oracle) {
      launch(priority_for_predicted_size(static_cast<double>(f->size)));
    } else {
      const double t0 = simu.now();
      d.predictor->predict(
          id, f->features, [this, &simu, f, t0, launch](double predicted) {
            pred_latency_.add(simu.now() - t0);
            prediction_latencies_.push_back(simu.now() - t0);
            if (predicted > 0.0) {
              pred_error_.add(std::abs(std::log10(
                  predicted / static_cast<double>(f->size))));
              predictions_.emplace_back(predicted,
                                        static_cast<double>(f->size));
              launch(priority_for_predicted_size(predicted));
            } else {
              launch(k_unknown_priority);
            }
          });
    }
  }

  sched_experiment_config config_;
  driver_config driver_;
  sim::simulation* sim_ = nullptr;
  std::optional<netsim::spine_leaf> topo_;
  bool needs_model_ = false;
  std::vector<host_deployment> deploy_;
  std::optional<correlated_size_process> sizes_;
  std::vector<arrival_plan> plan_;
  std::vector<std::unique_ptr<live_flow>> flows_;
  flow_id_t next_flow_ = 1;
  fct_recorder fct_;
  running_stats pred_latency_;
  running_stats pred_error_;
  std::vector<double> prediction_latencies_;
  std::vector<std::pair<double, double>> predictions_;
};

}  // namespace

std::string_view to_string(sched_deployment d) noexcept {
  switch (d) {
    case sched_deployment::liteflow:
      return "LF-FFNN";
    case sched_deployment::liteflow_noa:
      return "LF-FFNN-N-O-A";
    case sched_deployment::chardev:
      return "char-FFNN";
    case sched_deployment::netlink_dev:
      return "netlink-FFNN";
    case sched_deployment::no_prediction:
      return "no-prediction";
    case sched_deployment::oracle:
      return "oracle";
  }
  return "?";
}

sched_result run_sched_experiment(const sched_experiment_config& config) {
  sched_fct_experiment exp{config};
  sched_result result;
  static_cast<run_result&>(result) = run_experiment(exp);
  exp.take_extras(result);
  return result;
}

}  // namespace lf::apps
