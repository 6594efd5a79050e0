#include "apps/lb/lb_experiment.hpp"

#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "apps/lb/load_balance.hpp"
#include "netsim/topology.hpp"
#include "netsim/workload.hpp"
#include "nn/serialize.hpp"
#include "transport/dctcp.hpp"
#include "transport/window_sender.hpp"

namespace lf::apps {
namespace {

using netsim::flow_id_t;

struct lb_host_deployment {
  std::unique_ptr<supervised_adapter> adapter;
  std::unique_ptr<liteflow_stack> lf;
  std::unique_ptr<kernelsim::crossspace_channel> channel;
  std::unique_ptr<path_selector> selector;
  std::unique_ptr<path_stats_tracker> tracker;
  std::vector<core::train_sample> pending_labels;
};

struct lb_flow {
  std::size_t src = 0;
  std::size_t dst = 0;
  std::uint64_t size = 0;
  double arrival = 0.0;
  std::uint32_t path_tag = 0;
  std::vector<double> features;  ///< at last selection
  std::unique_ptr<transport::window_sender> sender;
  bool done = false;
};

/// Moving-hotspot load-balancing run (Fig. 17) through the shared driver.
class lb_fct_experiment final : public experiment {
 public:
  explicit lb_fct_experiment(const lb_experiment_config& config)
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
    const std::size_t paths = topo_->config().spines;

    needs_model_ = config_.deployment == lb_deployment::liteflow ||
                   config_.deployment == lb_deployment::liteflow_noa ||
                   config_.deployment == lb_deployment::chardev;

    // Pretrain one MLP on the synthetic path-quality prior, share weights.
    std::string frozen;
    if (needs_model_) {
      rng init{config_.seed + 1};
      auto net = nn::make_lb_mlp_net(init, paths);
      supervised_adapter warmup{std::move(net), 3e-3, 1, config_.seed};
      const auto dataset = make_lb_pretrain_dataset(
          paths, config_.pretrain_samples, config_.seed + 2);
      warmup.pretrain(dataset, config_.pretrain_epochs);
      frozen = nn::save_mlp_to_string(warmup.model());
    }

    deploy_.resize(hosts);
    for (std::size_t h = 0; h < hosts; ++h) {
      auto& d = deploy_[h];
      auto& host = topo_->host_at(h);
      d.tracker = std::make_unique<path_stats_tracker>(paths);
      if (needs_model_) {
        d.adapter = std::make_unique<supervised_adapter>(
            nn::load_mlp_from_string(frozen), 3e-3, 4, config_.seed + h);
      }
      const std::uint64_t selector_seed = config_.seed + 100 + h;
      switch (config_.deployment) {
        case lb_deployment::liteflow:
        case lb_deployment::liteflow_noa: {
          liteflow_stack_options opts;
          opts.model_name = "lb-mlp";
          opts.batch_interval = config_.batch_interval;
          opts.adaptation = config_.deployment == lb_deployment::liteflow;
          opts.sync.output_min = 0.0;
          opts.sync.output_max = 1.0;
          d.lf = std::make_unique<liteflow_stack>(host, *d.adapter, opts);
          d.lf->start();
          d.selector = std::make_unique<liteflow_path_selector>(
              d.lf->core(), paths, selector_seed);
          break;
        }
        case lb_deployment::chardev:
          // The char-device deployment still adapts (in userspace), labels
          // batched up.
          d.channel = std::make_unique<kernelsim::crossspace_channel>(
              simu, host.cpu(), host.costs(),
              kernelsim::channel_kind::char_device);
          d.selector = std::make_unique<userspace_path_selector>(
              *d.channel, host.costs(), d.adapter->model(), selector_seed);
          batch_labels_to_userspace(host, *d.channel, *d.adapter,
                                    d.pending_labels, config_.batch_interval);
          break;
        case lb_deployment::ecmp:
          d.selector = std::make_unique<ecmp_selector>();
          break;
      }
    }

    // Moving hotspot: constant-rate background pinned to one spine, hopping
    // periodically — the dynamic imbalance the learned selector must dodge.
    // Emitted manually (rather than via cbr_source) so packets carry an
    // explicit path tag.
    {
      auto state = std::make_shared<std::uint32_t>(2);
      simu.schedule_every(config_.hotspot_switch_period,
                          config_.hotspot_switch_period,
                          [state]() { *state = (*state == 1) ? 2 : 1; });
      auto* src_host = &topo_->host_at(0);
      const auto dst_id =
          static_cast<netsim::host_id_t>(config_.hosts_per_leaf);
      simu.schedule_every(
          0.0, 1500.0 * 8.0 / config_.hotspot_bps, [src_host, dst_id, state]() {
            netsim::packet pkt;
            pkt.flow_id = 1'000'000;
            pkt.dst = dst_id;
            pkt.payload_bytes = 1460;
            pkt.path_tag = *state;
            pkt.ecn_capable = false;  // blasting UDP; does not back off
            src_host->send_packet_free(pkt);
          });
    }

    flows_.reserve(config_.total_flows);
    auto sizes = netsim::web_search_flow_sizes();
    rng gen{config_.seed + 10};

    // Arrival plan.
    plan_.reserve(config_.total_flows);
    double t = 0.0;
    for (std::size_t i = 0; i < config_.total_flows; ++i) {
      t += gen.exponential(config_.arrival_rate);
      // Cross-leaf traffic only: LB is about the fabric paths.  Host 0 and
      // its peer carry the background hotspot; keep test flows off their
      // access links so the only contention the selector can dodge is the
      // fabric itself.
      const auto src = static_cast<std::size_t>(
          gen.uniform_int(1, static_cast<std::int64_t>(config_.hosts_per_leaf) - 1));
      const auto dst =
          config_.hosts_per_leaf +
          static_cast<std::size_t>(gen.uniform_int(
              1, static_cast<std::int64_t>(config_.hosts_per_leaf) - 1));
      const auto size = static_cast<std::uint64_t>(
          std::max(200.0, sizes.quantile(gen.uniform())));
      plan_.push_back({t, src, dst, size});
    }

    for (const auto& ap : plan_) {
      simu.schedule_at(ap.t, [this, ap]() { start_flow(ap); });
    }

    // Flowlet re-selection for active flows.
    if (config_.reselect_interval > 0.0 &&
        config_.deployment != lb_deployment::ecmp) {
      simu.schedule_every(config_.reselect_interval,
                          config_.reselect_interval, [this]() {
        for (auto& fp : flows_) {
          lb_flow* f = fp.get();
          if (!f->sender || f->done) continue;
          auto& d = deploy_[f->src];
          f->features = d.tracker->features();
          // Hysteresis (CONGA-style): rerouting an active flow reorders its
          // packets (dup-ACK storms for long flows), so only consult the
          // selector when the flow's current path actually looks congested.
          if (f->path_tag != 0) {
            const std::size_t ecn_index = (f->path_tag - 1) * 3;
            if (ecn_index < f->features.size() &&
                f->features[ecn_index] < 0.3) {
              continue;
            }
          }
          ++selector_calls_;
          d.selector->select(f->sender->flow(), f->features,
                             [f](std::uint32_t tag) {
                               if (!f->done && f->sender && tag != 0) {
                                 f->path_tag = tag;
                                 f->sender->set_path_tag(tag);
                               }
                             });
        }
      });
    }

    register_spine_leaf_telemetry(
        ctx, *topo_, "lb",
        [this](std::size_t h) { return deploy_[h].lf.get(); });
  }

  bool finished() const override { return fct_.completed() >= plan_.size(); }

  void report(driver_context&, run_result& out) override {
    fct_.report(out);
    for (auto& d : deploy_) {
      if (d.lf) out.snapshot_updates += d.lf->service().snapshot_updates();
    }
  }

  std::uint64_t selector_calls() const noexcept { return selector_calls_; }

 private:
  struct arrival_plan {
    double t;
    std::size_t src;
    std::size_t dst;
    std::uint64_t size;
  };

  void record_label(lb_flow& f, double fct) {
    auto& d = deploy_[f.src];
    if (!needs_model_ || !d.adapter || f.path_tag == 0 ||
        f.features.empty()) {
      return;
    }
    // Target: model's own scores with the chosen path's entry replaced by
    // the achieved normalized goodput.
    auto target = d.adapter->evaluate(f.features);
    const double score = std::min(
        1.0, (static_cast<double>(f.size) * 8.0 / fct) / config_.host_bps);
    target[f.path_tag - 1] = score;
    core::train_sample sample;
    sample.features = f.features;
    sample.aux = target;
    if (d.lf) {
      d.lf->collector().collect(std::move(sample));
    } else {
      d.pending_labels.push_back(std::move(sample));
    }
  }

  void start_flow(const arrival_plan& ap) {
    sim::simulation& simu = *sim_;
    auto flow = std::make_unique<lb_flow>();
    flow->src = ap.src;
    flow->dst = ap.dst;
    flow->size = ap.size;
    flow->arrival = simu.now();
    auto& d = deploy_[ap.src];
    const flow_id_t id = next_flow_++;
    lb_flow* f = flow.get();
    flows_.push_back(std::move(flow));

    f->features = d.tracker->features();
    ++selector_calls_;
    d.selector->select(id, f->features, [this, &simu, f, id](std::uint32_t tag) {
      f->path_tag = tag;
      transport::window_sender_config wc;
      wc.path_tag = tag;
      f->sender = std::make_unique<transport::window_sender>(
          topo_->host_at(f->src), static_cast<netsim::host_id_t>(f->dst), id,
          f->size, wc, std::make_unique<transport::dctcp>());
      f->sender->set_ack_observer([this, f](const transport::ack_event& ev) {
        deploy_[f->src].tracker->on_ack(f->path_tag, ev);
      });
      f->sender->set_done([this, &simu, f](double) {
        // FCT from arrival: path selection latency counts.
        const double fct = simu.now() - f->arrival;
        f->done = true;
        fct_.record(f->size, fct);
        record_label(*f, fct);
      });
      f->sender->start();
    });
  }

  lb_experiment_config config_;
  driver_config driver_;
  sim::simulation* sim_ = nullptr;
  std::optional<netsim::spine_leaf> topo_;
  bool needs_model_ = false;
  std::vector<lb_host_deployment> deploy_;
  std::vector<arrival_plan> plan_;
  std::vector<std::unique_ptr<lb_flow>> flows_;
  flow_id_t next_flow_ = 1;
  std::uint64_t selector_calls_ = 0;
  fct_recorder fct_;
};

}  // namespace

std::string_view to_string(lb_deployment d) noexcept {
  switch (d) {
    case lb_deployment::liteflow:
      return "LF-MLP";
    case lb_deployment::liteflow_noa:
      return "LF-MLP-N-O-A";
    case lb_deployment::chardev:
      return "char-MLP";
    case lb_deployment::ecmp:
      return "ECMP";
  }
  return "?";
}

lb_result run_lb_experiment(const lb_experiment_config& config) {
  lb_fct_experiment exp{config};
  lb_result result;
  static_cast<run_result&>(result) = run_experiment(exp);
  result.selector_calls = exp.selector_calls();
  return result;
}

}  // namespace lf::apps
