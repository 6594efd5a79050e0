#include "apps/cc/cc_experiment.hpp"

#include <cmath>
#include <functional>

#include "apps/common/deployment_registry.hpp"
#include "apps/common/probes.hpp"
#include "netsim/workload.hpp"
#include "transport/bbr.hpp"
#include "transport/cubic.hpp"
#include "transport/rate_sender.hpp"
#include "transport/window_sender.hpp"

namespace lf::apps {

std::string_view to_string(cc_scheme s) noexcept {
  return deployment_label(app_kind::cc, s);
}

bool is_rate_based(cc_scheme s) noexcept {
  return s != cc_scheme::bbr && s != cc_scheme::cubic;
}

namespace {

/// Owns whichever deployment stack the scheme needs and hands out
/// controllers / senders uniformly.
struct scheme_runtime {
  std::unique_ptr<liteflow_cc_stack> lf;
  std::unique_ptr<ccp_cc_stack> ccp;
  std::unique_ptr<kernel_train_cc_stack> ktrain;

  std::vector<std::unique_ptr<transport::rate_sender>> rate_flows;
  std::vector<std::unique_ptr<transport::window_sender>> window_flows;
};

/// Everything a cc stack builder needs to wire a deployment onto the
/// sender host — the registry stores one builder per cc_scheme.
struct cc_build_context {
  scheme_runtime& rt;
  netsim::host& sender;
  double bottleneck_bps;
  double bg_bps;
  double rtt;
  std::uint64_t buffer_bytes;
  double ccp_interval;
  double batch_interval;
  std::size_t pretrain;
  std::uint64_t seed;
  double sync_alpha;
};

using cc_stack_builder = std::function<void(cc_build_context&)>;

aurora_adapter_config env_matched_adapter(double bottleneck_bps, double bg_bps,
                                          double rtt,
                                          std::uint64_t buffer_bytes) {
  aurora_adapter_config a;
  a.env.bandwidth_bps = bottleneck_bps;
  a.env.background_bps = std::min(bg_bps, 0.9 * bottleneck_bps);
  a.env.base_rtt = rtt;
  a.env.queue_bytes = static_cast<double>(buffer_bytes);
  return a;
}

cc_stack_builder liteflow_builder(cc_model model, bool adaptation,
                                  bool dummy) {
  return [model, adaptation, dummy](cc_build_context& c) {
    liteflow_cc_options o;
    o.model = model;
    o.adaptation = adaptation;
    o.batch_interval = c.batch_interval;
    o.pretrain_iterations = dummy ? 0 : c.pretrain;
    o.seed = c.seed;
    o.adapter =
        env_matched_adapter(c.bottleneck_bps, c.bg_bps, c.rtt, c.buffer_bytes);
    o.controller.min_rate_bps = 0.05 * c.bottleneck_bps;
    o.controller.max_rate_bps = 2.0 * c.bottleneck_bps;
    o.sync.alpha = c.sync_alpha;
    c.rt.lf = std::make_unique<liteflow_cc_stack>(c.sender, o);
    if (dummy) {
      // LF-Dummy-NN (§5.1): same structure as Aurora, but the generated
      // code always emits the max action -> the flow pins line rate.
      auto& m = c.rt.lf->adapter().model();
      std::vector<double> params(m.parameter_count(), 0.0);
      // Final layer bias saturates tanh at ~+1.
      params.back() = 6.0;
      m.set_parameters(params);
    }
    c.rt.lf->start();
  };
}

cc_stack_builder ccp_builder(cc_model model) {
  return [model](cc_build_context& c) {
    ccp_cc_options o;
    o.model = model;
    o.interval = c.ccp_interval;
    o.pretrain_iterations = c.pretrain;
    o.seed = c.seed;
    o.adapter =
        env_matched_adapter(c.bottleneck_bps, c.bg_bps, c.rtt, c.buffer_bytes);
    o.controller.min_rate_bps = 0.05 * c.bottleneck_bps;
    o.controller.max_rate_bps = 2.0 * c.bottleneck_bps;
    c.rt.ccp = std::make_unique<ccp_cc_stack>(c.sender, o);
    c.rt.ccp->start();
  };
}

cc_stack_builder kernel_train_builder() {
  return [](cc_build_context& c) {
    kernel_train_cc_options o;
    o.pretrain_iterations = c.pretrain;
    o.seed = c.seed;
    o.adapter =
        env_matched_adapter(c.bottleneck_bps, c.bg_bps, c.rtt, c.buffer_bytes);
    o.controller.min_rate_bps = 0.05 * c.bottleneck_bps;
    o.controller.max_rate_bps = 2.0 * c.bottleneck_bps;
    c.rt.ktrain = std::make_unique<kernel_train_cc_stack>(c.sender, o);
    c.rt.ktrain->start();
  };
}

[[maybe_unused]] const bool k_cc_registered = [] {
  register_deployment(app_kind::cc, cc_scheme::lf_aurora, "LF-Aurora",
                      liteflow_builder(cc_model::aurora, true, false));
  register_deployment(app_kind::cc, cc_scheme::lf_mocc, "LF-MOCC",
                      liteflow_builder(cc_model::mocc, true, false));
  register_deployment(app_kind::cc, cc_scheme::lf_aurora_noa,
                      "LF-Aurora-N-O-A",
                      liteflow_builder(cc_model::aurora, false, false));
  register_deployment(app_kind::cc, cc_scheme::lf_dummy, "LF-Dummy-NN",
                      liteflow_builder(cc_model::aurora, false, true));
  register_deployment(app_kind::cc, cc_scheme::ccp_aurora, "CCP-Aurora",
                      ccp_builder(cc_model::aurora));
  register_deployment(app_kind::cc, cc_scheme::ccp_mocc, "CCP-MOCC",
                      ccp_builder(cc_model::mocc));
  register_deployment(app_kind::cc, cc_scheme::kernel_train_aurora,
                      "Kernel-Train-Aurora", kernel_train_builder());
  // Window transports need no stack; registered for the label alone.
  register_deployment(app_kind::cc, cc_scheme::bbr, "BBR");
  register_deployment(app_kind::cc, cc_scheme::cubic, "CUBIC");
  return true;
}();

void setup_scheme(scheme_runtime& rt, cc_scheme scheme, netsim::host& sender,
                  double bottleneck_bps, double bg_bps, double rtt,
                  std::uint64_t buffer_bytes, double ccp_interval,
                  double batch_interval, std::size_t pretrain,
                  std::uint64_t seed, double sync_alpha = 0.05) {
  cc_build_context ctx{rt,           sender,         bottleneck_bps,
                       bg_bps,       rtt,            buffer_bytes,
                       ccp_interval, batch_interval, pretrain,
                       seed,         sync_alpha};
  const auto* build =
      deployment_registry::instance().builder_as<cc_stack_builder>(
          app_kind::cc, static_cast<int>(scheme));
  if (build) (*build)(ctx);
}

void launch_flow(scheme_runtime& rt, cc_scheme scheme, netsim::host& sender,
                 netsim::host_id_t dst, netsim::flow_id_t id,
                 double bottleneck_bps, double initial_rate_bps) {
  if (is_rate_based(scheme)) {
    transport::rate_sender_config rc;
    rc.initial_rate_bps =
        scheme == cc_scheme::lf_dummy ? bottleneck_bps : initial_rate_bps;
    rc.max_rate_bps = 2.0 * bottleneck_bps;
    // Keep >= ~5% of line rate so monitor intervals still carry enough
    // packets for meaningful signal statistics.
    rc.min_rate_bps = 0.05 * bottleneck_bps;
    std::unique_ptr<transport::rate_controller> ctrl;
    if (rt.lf) {
      ctrl = rt.lf->make_controller(id);
    } else if (rt.ccp) {
      ctrl = rt.ccp->make_controller();
    } else {
      ctrl = rt.ktrain->make_controller();
    }
    auto flow = std::make_unique<transport::rate_sender>(
        sender, dst, id, rc, std::move(ctrl));
    flow->start();
    rt.rate_flows.push_back(std::move(flow));
  } else {
    std::unique_ptr<transport::cong_ctrl> cc;
    if (scheme == cc_scheme::bbr) {
      cc = std::make_unique<transport::bbr>();
    } else {
      cc = std::make_unique<transport::cubic>();
    }
    auto flow = std::make_unique<transport::window_sender>(
        sender, dst, id, std::uint64_t{1} << 50, transport::window_sender_config{},
        std::move(cc));
    flow->start();
    rt.window_flows.push_back(std::move(flow));
  }
}

/// Register the sender-side telemetry every cc experiment shares: host CPU
/// accounting plus the bottleneck counters, and the LiteFlow stack when one
/// is deployed.  The trace rings wire alongside the metrics so LF_TRACE=1
/// observes exactly the components the registry already covers.
void wire_cc_metrics(driver_context& ctx, netsim::dumbbell& net,
                     scheme_runtime& rt) {
  net.sender().register_metrics(ctx.metrics, "cc");
  net.bottleneck().register_metrics(ctx.metrics, "cc");
  net.sender().register_trace(ctx.trace, "cc");
  net.bottleneck().register_trace(ctx.trace, "cc");
  if (rt.lf) {
    rt.lf->core().register_metrics(ctx.metrics, "cc");
    rt.lf->service().register_metrics(ctx.metrics, "cc");
    rt.lf->collector().register_metrics(ctx.metrics, "cc.collector");
    rt.lf->core().register_trace(ctx.trace, "cc");
    rt.lf->service().register_trace(ctx.trace, "cc");
    rt.lf->collector().register_trace(ctx.trace, "cc.collector");
    rt.lf->core().register_monitor(ctx.monitor);
    rt.lf->service().register_monitor(ctx.monitor);
  }
}

/// Single-flow goodput run under emulated congestion (Figs. 1/2/5/11/12/14).
class cc_single_flow_experiment final : public experiment {
 public:
  explicit cc_single_flow_experiment(const cc_single_flow_config& config)
      : config_{config} {
    driver_.name = std::string{to_string(config.scheme)};
    driver_.seed = config.seed;
    driver_.duration = config.duration;
    driver_.warmup = config.warmup;
    if (config.trace) driver_.trace = *config.trace;
    if (config.monitor) driver_.monitor = *config.monitor;
    if (config.report) driver_.report = *config.report;
  }

  const driver_config& config() const override { return driver_; }

  void setup(driver_context& ctx) override {
    sim::simulation& simu = ctx.sim;
    net_.emplace(simu, config_.net);
    if (config_.trace_queue) net_->bottleneck().enable_queue_trace();

    bg_.emplace(simu, net_->bg_sender(), netsim::dumbbell::receiver_id,
                999'999, config_.bg_bps);
    if (config_.bg_bps > 0.0) bg_->start();
    for (const auto& phase : config_.bg_schedule) {
      simu.schedule_at(phase.at, [this, rate = phase.bg_bps,
                                  loss = phase.random_loss]() {
        bg_->set_rate(rate);
        if (rate > 0.0) bg_->start();
        net_->bottleneck().set_random_loss(loss);
      });
    }

    setup_scheme(rt_, config_.scheme, net_->sender(),
                 config_.net.bottleneck_bps, config_.bg_bps, config_.net.rtt,
                 config_.net.buffer_bytes, config_.ccp_interval,
                 config_.batch_interval, config_.pretrain_iterations,
                 config_.seed, config_.lf_sync_alpha);
    launch_flow(rt_, config_.scheme, net_->sender(),
                netsim::dumbbell::receiver_id, 1, config_.net.bottleneck_bps,
                0.1 * config_.net.bottleneck_bps);

    // Goodput sampling counts only the test flow (exclude background):
    // sample the receiver's per-flow state.
    sampler_ = std::make_shared<std::function<void()>>();
    *sampler_ = [this, &simu]() {
      const auto* st = net_->receiver().flow_state(1);
      const std::uint64_t bytes = st ? st->delivered_payload : 0;
      goodput_.record(simu.now(),
                      static_cast<double>(bytes - last_bytes_) * 8.0 /
                          config_.sample_interval);
      last_bytes_ = bytes;
      simu.schedule(config_.sample_interval, *sampler_);
    };
    simu.schedule(config_.sample_interval, *sampler_);

    wire_cc_metrics(ctx, *net_, rt_);
    ctx.metrics.register_series("cc.goodput_bps", goodput_);
  }

  void report(driver_context&, run_result& out) override {
    running_stats stats;
    for (const auto& [t, v] : goodput_.points()) {
      if (t >= config_.warmup) stats.add(v);
    }
    out.mean_goodput = stats.mean();
    out.stddev_goodput = stats.stddev();
    out.goodput = std::move(goodput_);
    if (config_.trace_queue) out.queue = net_->bottleneck().queue_trace();
    if (rt_.lf) out.snapshot_updates = rt_.lf->service().snapshot_updates();
    const auto& cpu = net_->sender().cpu();
    const double total = cpu.total_busy_seconds();
    out.cpu.busy_seconds = total;
    out.cpu.softirq_seconds =
        cpu.busy_seconds(kernelsim::task_category::softirq);
    out.cpu.datapath_seconds =
        cpu.busy_seconds(kernelsim::task_category::datapath);
    out.cpu.slowpath_seconds =
        cpu.busy_seconds(kernelsim::task_category::user_train) +
        cpu.busy_seconds(kernelsim::task_category::user_nn);
    out.softirq_share = total > 0.0 ? out.cpu.softirq_seconds / total : 0.0;
    for (auto& f : rt_.rate_flows) f->stop();
  }

 private:
  cc_single_flow_config config_;
  driver_config driver_;
  std::optional<netsim::dumbbell> net_;
  std::optional<netsim::cbr_source> bg_;
  scheme_runtime rt_;
  time_series goodput_{"goodput_bps"};
  std::uint64_t last_bytes_ = 0;
  std::shared_ptr<std::function<void()>> sampler_;
};

/// N-flow overhead run in a non-congested setting (Figs. 3/4/13).
class cc_overhead_experiment final : public experiment {
 public:
  explicit cc_overhead_experiment(const cc_overhead_config& config)
      : config_{config} {
    driver_.name = std::string{to_string(config.scheme)};
    driver_.seed = config.seed;
    driver_.duration = config.duration;
    driver_.warmup = config.warmup;
    driver_.warmup_hook = true;
  }

  const driver_config& config() const override { return driver_; }

  void setup(driver_context& ctx) override {
    netsim::dumbbell_config dc;
    dc.bottleneck_bps = config_.bottleneck_bps;
    dc.rtt = 10e-3;
    // Generous BDP-scale buffer: this mode studies CPU overhead, not loss.
    dc.buffer_bytes = static_cast<std::uint64_t>(
        3.0 * config_.bottleneck_bps / 8.0 * dc.rtt);
    net_.emplace(ctx.sim, dc);

    setup_scheme(rt_, config_.scheme, net_->sender(), config_.bottleneck_bps,
                 /*bg=*/0.0, dc.rtt, dc.buffer_bytes, config_.ccp_interval,
                 config_.batch_interval, config_.pretrain_iterations,
                 config_.seed);
    for (std::size_t i = 0; i < config_.n_flows; ++i) {
      // Overhead runs study steady state, not ramp-up: start near fair share.
      launch_flow(rt_, config_.scheme, net_->sender(),
                  netsim::dumbbell::receiver_id,
                  static_cast<netsim::flow_id_t>(i + 1),
                  config_.bottleneck_bps,
                  0.8 * config_.bottleneck_bps /
                      static_cast<double>(config_.n_flows));
    }

    wire_cc_metrics(ctx, *net_, rt_);
  }

  void at_warmup(driver_context&) override {
    // Snapshot CPU accounting and delivered bytes at the end of warmup.
    bytes_at_warmup_ = net_->receiver().total_delivered_payload();
    const auto& cpu = net_->sender().cpu();
    softirq_at_warmup_ = cpu.busy_seconds(kernelsim::task_category::softirq);
    datapath_at_warmup_ = cpu.busy_seconds(kernelsim::task_category::datapath);
    slowpath_at_warmup_ =
        cpu.busy_seconds(kernelsim::task_category::user_train) +
        cpu.busy_seconds(kernelsim::task_category::user_nn);
    busy_at_warmup_ = cpu.total_busy_seconds();
  }

  void report(driver_context&, run_result& out) override {
    const double window = config_.duration - config_.warmup;
    out.mean_goodput =
        static_cast<double>(net_->receiver().total_delivered_payload() -
                            bytes_at_warmup_) *
        8.0 / window;
    const auto& cpu = net_->sender().cpu();
    out.cpu.softirq_seconds =
        cpu.busy_seconds(kernelsim::task_category::softirq) -
        softirq_at_warmup_;
    out.cpu.datapath_seconds =
        cpu.busy_seconds(kernelsim::task_category::datapath) -
        datapath_at_warmup_;
    out.cpu.slowpath_seconds =
        cpu.busy_seconds(kernelsim::task_category::user_train) +
        cpu.busy_seconds(kernelsim::task_category::user_nn) -
        slowpath_at_warmup_;
    out.cpu.busy_seconds = cpu.total_busy_seconds() - busy_at_warmup_;
    out.softirq_share = out.cpu.busy_seconds > 0.0
                            ? out.cpu.softirq_seconds / out.cpu.busy_seconds
                            : 0.0;
    out.cpu.utilization = out.cpu.busy_seconds / (cpu.capacity() * window);
    if (rt_.lf) out.snapshot_updates = rt_.lf->service().snapshot_updates();
    for (auto& f : rt_.rate_flows) f->stop();
  }

 private:
  cc_overhead_config config_;
  driver_config driver_;
  std::optional<netsim::dumbbell> net_;
  scheme_runtime rt_;
  std::uint64_t bytes_at_warmup_ = 0;
  double softirq_at_warmup_ = 0.0;
  double datapath_at_warmup_ = 0.0;
  double slowpath_at_warmup_ = 0.0;
  double busy_at_warmup_ = 0.0;
};

}  // namespace

cc_single_flow_result run_cc_single_flow(const cc_single_flow_config& config) {
  cc_single_flow_experiment exp{config};
  return run_experiment(exp);
}

cc_overhead_result run_cc_overhead(const cc_overhead_config& config) {
  cc_overhead_experiment exp{config};
  cc_overhead_result result;
  static_cast<run_result&>(result) = run_experiment(exp);
  result.aggregate_bps = result.mean_goodput;
  result.softirq_seconds = result.cpu.softirq_seconds;
  result.datapath_seconds = result.cpu.datapath_seconds;
  result.slowpath_seconds = result.cpu.slowpath_seconds;
  result.cpu_utilization = result.cpu.utilization;
  return result;
}

}  // namespace lf::apps
