// The parts every app builds a sender host's deployment from (§4.2).  Each
// app (cc / sched / lb) switches over its own deployment enum and gives a
// host its adapter (the slow-path model) plus one of:
//  - liteflow_stack: netlink server module + core module + batch collector
//    + userspace service around the adapter (the LF-* deployments; their
//    N-O-A ablations set adaptation=false);
//  - a kernelsim::crossspace_channel to a userspace copy of the model (CCP,
//    char-device and netlink deployments), which adapts from label batches
//    through batch_labels_to_userspace();
//  - nothing (window transports, ECMP, no-prediction, oracle).
// The LiteFlow controllers, predictors and selectors all query the kernel
// snapshot through query_model().
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/common/experiment_driver.hpp"
#include "core/userspace_service.hpp"
#include "netsim/host.hpp"

namespace lf::netsim {
class spine_leaf;
}

namespace lf::apps {

struct liteflow_stack_options {
  std::string model_name = "model";
  double batch_interval = 0.100;
  bool adaptation = true;
  /// Pin each flow to the snapshot that first served it (§3.4).  CC turns
  /// it off (§3.4 fn. 2): its flows are long-lived and must follow updates.
  bool flow_cache = true;
  core::sync_config sync{};
};

class liteflow_stack {
 public:
  /// `user` is the adapter the service adapts; it must outlive the stack.
  liteflow_stack(netsim::host& h, core::adaptation_interface& user,
                 liteflow_stack_options options);

  /// Installs snapshot v1 and starts batch delivery.
  void start();

  /// Wire the core and service into the run's metrics and trace under
  /// `prefix`, the batch collector under "<prefix>.collector", and both the
  /// core and the service into the run's adaptation monitor.
  void register_telemetry(driver_context& ctx, const std::string& prefix);

  core::liteflow_core& core() noexcept { return *core_; }
  core::batch_collector& collector() noexcept { return *collector_; }
  core::userspace_service& service() noexcept { return *service_; }
  kernelsim::crossspace_channel& netlink() noexcept { return *netlink_; }

 private:
  std::unique_ptr<kernelsim::crossspace_channel> netlink_;
  std::unique_ptr<core::liteflow_core> core_;
  std::unique_ptr<core::batch_collector> collector_;
  std::unique_ptr<core::userspace_service> service_;
};

/// lf_query_model on float features: quantize each at the active snapshot's
/// IO scale (fp::sat_quantize), query, and hand `done` the dequantized
/// outputs.  `done` gets an empty vector when nothing is installed (at once)
/// or the query fails.
void query_model(core::liteflow_core& core, netsim::flow_id_t flow,
                 std::span<const double> features,
                 std::function<void(std::vector<double>)> done);

/// Userspace deployments adapt too: every `interval` the labels queued in
/// `pending` cross `channel` and `user` trains on them at the host's
/// userspace training cost.  Every argument must outlive the simulation.
void batch_labels_to_userspace(netsim::host& host,
                               kernelsim::crossspace_channel& channel,
                               core::adaptation_interface& user,
                               std::vector<core::train_sample>& pending,
                               double interval);

/// Telemetry of a spine-leaf run under `prefix` ("sched", "lb"): each host's
/// FCT/CPU accounting, host h's LiteFlow stack `stack_at(h)` (null for none)
/// under "<prefix>.<host name>", then the fabric uplinks under
/// "<prefix>.fabric".
void register_spine_leaf_telemetry(
    driver_context& ctx, netsim::spine_leaf& topo, const std::string& prefix,
    const std::function<liteflow_stack*(std::size_t)>& stack_at);

}  // namespace lf::apps
