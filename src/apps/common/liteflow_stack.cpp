#include "apps/common/liteflow_stack.hpp"

#include "netsim/topology.hpp"

namespace lf::apps {

liteflow_stack::liteflow_stack(netsim::host& h,
                               core::adaptation_interface& user,
                               liteflow_stack_options options) {
  auto& sim = h.simulator();
  netlink_ = std::make_unique<kernelsim::crossspace_channel>(
      sim, h.cpu(), h.costs(), kernelsim::channel_kind::netlink);
  core_ = std::make_unique<core::liteflow_core>(sim, h.cpu(), h.costs(),
                                                options.flow_cache);
  core::batch_collector_config bc;
  bc.interval = options.batch_interval;
  collector_ = std::make_unique<core::batch_collector>(sim, *netlink_, bc);

  core::service_config sc;
  sc.model_name = options.model_name;
  sc.sync = options.sync;
  sc.adaptation_enabled = options.adaptation;
  service_ = std::make_unique<core::userspace_service>(
      sim, h.cpu(), h.costs(), *netlink_, *core_, *collector_, user, sc);
}

void liteflow_stack::start() { service_->start(); }

void liteflow_stack::register_telemetry(driver_context& ctx,
                                        const std::string& prefix) {
  core_->register_metrics(ctx.metrics, prefix);
  service_->register_metrics(ctx.metrics, prefix);
  collector_->register_metrics(ctx.metrics, prefix + ".collector");
  core_->register_trace(ctx.trace, prefix);
  service_->register_trace(ctx.trace, prefix);
  collector_->register_trace(ctx.trace, prefix + ".collector");
  core_->register_monitor(ctx.monitor);
  service_->register_monitor(ctx.monitor);
}

void query_model(core::liteflow_core& core, netsim::flow_id_t flow,
                 std::span<const double> features,
                 std::function<void(std::vector<double>)> done) {
  const fp::s64 scale = core.active_io_scale();
  if (scale == 0) {
    done({});
    return;
  }
  const auto s = static_cast<double>(scale);
  std::vector<fp::s64> input(features.size());
  for (std::size_t i = 0; i < features.size(); ++i) {
    input[i] = fp::sat_quantize(features[i] * s);
  }
  core.query_model(flow, std::move(input),
                   [s, done = std::move(done)](std::vector<fp::s64> out) {
                     std::vector<double> y(out.size());
                     for (std::size_t i = 0; i < out.size(); ++i) {
                       y[i] = static_cast<double>(out[i]) / s;
                     }
                     done(std::move(y));
                   });
}

void batch_labels_to_userspace(netsim::host& host,
                               kernelsim::crossspace_channel& channel,
                               core::adaptation_interface& user,
                               std::vector<core::train_sample>& pending,
                               double interval) {
  const auto tick = [&host, &channel, &user, &pending]() {
    if (pending.empty()) return;
    auto batch = std::move(pending);
    pending.clear();
    channel.send_to_user(
        batch.size() * 64, [&host, &user, batch = std::move(batch)]() {
          const double cost =
              host.costs().user_train_fixed_cost +
              static_cast<double>(batch.size() * user.parameter_count()) *
                  host.costs().user_train_cost_per_sample_param;
          host.cpu().submit(kernelsim::task_category::user_train, cost,
                            [&user, batch = std::move(batch)]() {
                              user.adapt(batch);
                            });
        });
  };
  host.simulator().schedule_every(interval, interval, tick);
}

void register_spine_leaf_telemetry(
    driver_context& ctx, netsim::spine_leaf& topo, const std::string& prefix,
    const std::function<liteflow_stack*(std::size_t)>& stack_at) {
  for (std::size_t h = 0; h < topo.host_count(); ++h) {
    auto& host = topo.host_at(h);
    host.register_metrics(ctx.metrics, prefix);
    host.register_trace(ctx.trace, prefix);
    if (liteflow_stack* lf = stack_at(h)) {
      lf->register_telemetry(ctx, prefix + "." + host.name());
    }
  }
  for (std::size_t l = 0; l < 2; ++l) {
    for (std::size_t s = 0; s < topo.config().spines; ++s) {
      topo.uplink(l, s).register_metrics(ctx.metrics, prefix + ".fabric");
      topo.uplink(l, s).register_trace(ctx.trace, prefix + ".fabric");
    }
  }
}

}  // namespace lf::apps
