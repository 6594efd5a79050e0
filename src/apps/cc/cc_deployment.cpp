#include "apps/cc/cc_deployment.hpp"

namespace lf::apps {

liteflow_cc_stack::liteflow_cc_stack(netsim::host& h,
                                     liteflow_cc_options options)
    : host_{h}, options_{std::move(options)} {
  auto& sim = host_.simulator();
  netlink_ = std::make_unique<kernelsim::crossspace_channel>(
      sim, host_.cpu(), host_.costs(), kernelsim::channel_kind::netlink);
  // CC flows are long-lived and tolerate a mid-flow model switch (the rate
  // just keeps being steered); pinning them to their first snapshot would
  // lock out every future update.  The paper notes users can disable the
  // flow cache per datapath function (§3.4 fn. 2) — the CC module does.
  core_ = std::make_unique<core::liteflow_core>(sim, host_.cpu(),
                                                host_.costs(),
                                                /*flow_cache=*/false);
  core::batch_collector_config bc;
  bc.interval = options_.batch_interval;
  collector_ =
      std::make_unique<core::batch_collector>(sim, *netlink_, bc);

  auto adapter_config = options_.adapter;
  adapter_config.model = options_.model;
  adapter_config.seed = options_.seed;
  adapter_ = std::make_unique<aurora_adapter>(adapter_config);

  core::service_config sc;
  sc.model_name =
      options_.model == cc_model::aurora ? "aurora" : "mocc";
  sc.quantizer = options_.quantizer;
  sc.sync = options_.sync;
  sc.adaptation_enabled = options_.adaptation;
  service_ = std::make_unique<core::userspace_service>(
      sim, host_.cpu(), host_.costs(), *netlink_, *core_, *collector_,
      *adapter_, sc);

  // Attach the CC input collector / output enforcer module (§4.2).
  core_->register_io(core::io_module_spec{
      "liteflow-cc", adapter_->model().input_size(),
      adapter_->model().output_size()});
}

void liteflow_cc_stack::start() {
  adapter_->pretrain(options_.pretrain_iterations);
  service_->start();
}

std::unique_ptr<transport::rate_controller> liteflow_cc_stack::make_controller(
    netsim::flow_id_t flow) {
  return std::make_unique<liteflow_cc_controller>(
      *core_, options_.adaptation ? collector_.get() : nullptr, flow,
      options_.controller);
}

ccp_cc_stack::ccp_cc_stack(netsim::host& h, ccp_cc_options options)
    : host_{h}, options_{std::move(options)} {
  ipc_ = std::make_unique<kernelsim::crossspace_channel>(
      host_.simulator(), host_.cpu(), host_.costs(),
      kernelsim::channel_kind::ccp_ipc);
  auto adapter_config = options_.adapter;
  adapter_config.model = options_.model;
  adapter_config.seed = options_.seed;
  adapter_ = std::make_unique<aurora_adapter>(adapter_config);
}

void ccp_cc_stack::start() {
  adapter_->pretrain(options_.pretrain_iterations);
}

std::unique_ptr<transport::rate_controller> ccp_cc_stack::make_controller() {
  return std::make_unique<ccp_cc_controller>(
      host_.simulator(), *ipc_, host_.costs(), adapter_->model(),
      options_.interval, options_.controller);
}

kernel_train_cc_stack::kernel_train_cc_stack(netsim::host& h,
                                             kernel_train_cc_options options)
    : host_{h}, options_{std::move(options)} {
  auto adapter_config = options_.adapter;
  adapter_config.model = options_.model;
  adapter_config.seed = options_.seed;
  adapter_ = std::make_unique<aurora_adapter>(adapter_config);
}

void kernel_train_cc_stack::start() {
  adapter_->pretrain(options_.pretrain_iterations);
}

std::unique_ptr<transport::rate_controller>
kernel_train_cc_stack::make_controller() {
  return std::make_unique<kernel_train_controller>(
      host_.simulator(), host_.cpu(), host_.costs(), adapter_->model(),
      options_.train_interval, options_.batch_size, options_.controller);
}

}  // namespace lf::apps
