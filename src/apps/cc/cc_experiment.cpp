#include "apps/cc/cc_experiment.hpp"

#include <cmath>
#include <functional>

#include "apps/cc/aurora_adapter.hpp"
#include "apps/cc/cc_controllers.hpp"
#include "apps/common/liteflow_stack.hpp"
#include "netsim/workload.hpp"
#include "transport/bbr.hpp"
#include "transport/cubic.hpp"
#include "transport/rate_sender.hpp"
#include "transport/window_sender.hpp"

namespace lf::apps {

std::string_view to_string(cc_scheme s) noexcept {
  switch (s) {
    case cc_scheme::lf_aurora:
      return "LF-Aurora";
    case cc_scheme::lf_mocc:
      return "LF-MOCC";
    case cc_scheme::lf_aurora_noa:
      return "LF-Aurora-N-O-A";
    case cc_scheme::lf_dummy:
      return "LF-Dummy-NN";
    case cc_scheme::ccp_aurora:
      return "CCP-Aurora";
    case cc_scheme::ccp_mocc:
      return "CCP-MOCC";
    case cc_scheme::kernel_train_aurora:
      return "Kernel-Train-Aurora";
    case cc_scheme::bbr:
      return "BBR";
    case cc_scheme::cubic:
      return "CUBIC";
  }
  return "?";
}

bool is_rate_based(cc_scheme s) noexcept {
  return s != cc_scheme::bbr && s != cc_scheme::cubic;
}

namespace {

/// The sender host's deployment for one scheme, and the flows it serves.
struct scheme_runtime {
  std::unique_ptr<aurora_adapter> adapter;  ///< every NN scheme's model
  std::unique_ptr<liteflow_stack> lf;       ///< LF-* schemes
  std::unique_ptr<kernelsim::crossspace_channel> ccp;  ///< CCP-* schemes
  double ccp_interval = 0.0;

  std::vector<std::unique_ptr<transport::rate_sender>> rate_flows;
  std::vector<std::unique_ptr<transport::window_sender>> window_flows;
};

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

void setup_scheme(scheme_runtime& rt, cc_scheme scheme, netsim::host& sender,
                  double bottleneck_bps, double bg_bps, double rtt,
                  std::uint64_t buffer_bytes, double ccp_interval,
                  double batch_interval, std::size_t pretrain,
                  std::uint64_t seed, double sync_alpha = 0.05) {
  auto a = env_matched_adapter(bottleneck_bps, bg_bps, rtt, buffer_bytes);
  a.model = scheme == cc_scheme::lf_mocc || scheme == cc_scheme::ccp_mocc
                ? cc_model::mocc
                : cc_model::aurora;
  a.seed = seed;
  switch (scheme) {
    case cc_scheme::lf_aurora:
    case cc_scheme::lf_mocc:
    case cc_scheme::lf_aurora_noa:
    case cc_scheme::lf_dummy: {
      rt.adapter = std::make_unique<aurora_adapter>(a);
      liteflow_stack_options o;
      o.model_name = a.model == cc_model::aurora ? "aurora" : "mocc";
      o.batch_interval = batch_interval;
      o.adaptation =
          scheme == cc_scheme::lf_aurora || scheme == cc_scheme::lf_mocc;
      // CC flows are long-lived and tolerate a mid-flow model switch (the
      // rate just keeps being steered); pinning them to their first
      // snapshot would lock out every future update.
      o.flow_cache = false;
      o.sync.alpha = sync_alpha;
      rt.lf = std::make_unique<liteflow_stack>(sender, *rt.adapter, o);
      // Attach the CC input collector / output enforcer module (§4.2).
      auto& m = rt.adapter->model();
      rt.lf->core().register_io(core::io_module_spec{
          "liteflow-cc", m.input_size(), m.output_size()});
      if (scheme == cc_scheme::lf_dummy) {
        // LF-Dummy-NN (§5.1): same structure as Aurora, but the generated
        // code always emits the max action -> the flow pins line rate.
        std::vector<double> params(m.parameter_count(), 0.0);
        // Final layer bias saturates tanh at ~+1.
        params.back() = 6.0;
        m.set_parameters(params);
      } else {
        rt.adapter->pretrain(pretrain);
      }
      rt.lf->start();
      return;
    }
    case cc_scheme::ccp_aurora:
    case cc_scheme::ccp_mocc:
      rt.ccp = std::make_unique<kernelsim::crossspace_channel>(
          sender.simulator(), sender.cpu(), sender.costs(),
          kernelsim::channel_kind::ccp_ipc);
      rt.ccp_interval = ccp_interval;
      break;
    case cc_scheme::kernel_train_aurora:
      break;
    case cc_scheme::bbr:
    case cc_scheme::cubic:
      return;  // window transports need no deployment
  }
  rt.adapter = std::make_unique<aurora_adapter>(a);
  rt.adapter->pretrain(pretrain);
}

/// The rate controller a scheme's flow runs; null for window transports.
std::unique_ptr<transport::rate_controller> make_controller(
    scheme_runtime& rt, cc_scheme scheme, netsim::host& sender,
    netsim::flow_id_t id, double bottleneck_bps) {
  cc_controller_config c;
  c.min_rate_bps = 0.05 * bottleneck_bps;
  c.max_rate_bps = 2.0 * bottleneck_bps;
  switch (scheme) {
    case cc_scheme::lf_aurora:
    case cc_scheme::lf_mocc:
      return std::make_unique<liteflow_cc_controller>(
          rt.lf->core(), &rt.lf->collector(), id, c);
    case cc_scheme::lf_aurora_noa:
    case cc_scheme::lf_dummy:
      // No slow path: the installed snapshot alone steers the rate.
      return std::make_unique<liteflow_cc_controller>(rt.lf->core(), nullptr,
                                                      id, c);
    case cc_scheme::ccp_aurora:
    case cc_scheme::ccp_mocc:
      return std::make_unique<ccp_cc_controller>(
          sender.simulator(), *rt.ccp, sender.costs(), rt.adapter->model(),
          rt.ccp_interval, c);
    case cc_scheme::kernel_train_aurora:
      return std::make_unique<kernel_train_controller>(
          sender.simulator(), sender.cpu(), sender.costs(),
          rt.adapter->model(), /*train_interval=*/0.100, /*batch_size=*/32,
          c);
    case cc_scheme::bbr:
    case cc_scheme::cubic:
      break;
  }
  return nullptr;
}

void launch_flow(scheme_runtime& rt, cc_scheme scheme, netsim::host& sender,
                 netsim::host_id_t dst, netsim::flow_id_t id,
                 double bottleneck_bps, double initial_rate_bps) {
  if (auto ctrl = make_controller(rt, scheme, sender, id, bottleneck_bps)) {
    transport::rate_sender_config rc;
    rc.initial_rate_bps =
        scheme == cc_scheme::lf_dummy ? bottleneck_bps : initial_rate_bps;
    rc.max_rate_bps = 2.0 * bottleneck_bps;
    // Keep >= ~5% of line rate so monitor intervals still carry enough
    // packets for meaningful signal statistics.
    rc.min_rate_bps = 0.05 * bottleneck_bps;
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
  if (rt.lf) rt.lf->register_telemetry(ctx, "cc");
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
    driver_.monitor = config.monitor;
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
    simu.schedule_every(
        config_.sample_interval, config_.sample_interval, [this, &simu]() {
          const auto* st = net_->receiver().flow_state(1);
          const std::uint64_t bytes = st ? st->delivered_payload : 0;
          goodput_.record(simu.now(),
                          static_cast<double>(bytes - last_bytes_) * 8.0 /
                              config_.sample_interval);
          last_bytes_ = bytes;
        });

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

run_result run_cc_overhead(const cc_overhead_config& config) {
  cc_overhead_experiment exp{config};
  return run_experiment(exp);
}

}  // namespace lf::apps
