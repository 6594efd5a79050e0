// LiteFlow core module facade (§4.2, Table 1).
//
// Bundles the NN manager, the inference router and the collector/enforcer
// registry, and exposes the four paper APIs:
//   lf_register_model  -> register_model()
//   lf_register_io     -> register_io()   (validates NN shape compatibility)
//   lf_unregister_io   -> unregister_io()
//   lf_query_model     -> query_model()   (unified inference interface)
// query_model runs on the simulated kernel CPU: the caller's callback fires
// after the snapshot's MAC count worth of integer work has been serviced,
// so inference contends with packet processing exactly as in a real kernel.
// Snapshot install and the active/standby flip go through router().
#pragma once

#include <functional>
#include <map>
#include <string>

#include "core/adaptation_monitor.hpp"
#include "core/inference_router.hpp"
#include "core/nn_manager.hpp"
#include "kernelsim/cost_model.hpp"
#include "kernelsim/cpu.hpp"

namespace lf::core {

using io_handle = std::uint64_t;

struct io_module_spec {
  std::string name;
  std::size_t input_size = 0;
  std::size_t output_size = 0;
};

class liteflow_core {
 public:
  liteflow_core(sim::simulation& sim, kernelsim::cpu_model& cpu,
                const kernelsim::cost_model& costs, router_config rconfig = {});

  nn_manager& manager() noexcept { return manager_; }
  inference_router& router() noexcept { return router_; }

  /// lf_register_model.
  model_id register_model(codegen::snapshot snap);

  /// lf_unregister_model: the generated module's exit handler calls this on
  /// rmmod.  Returns false if the model is unknown or still referenced (it
  /// is then unloaded automatically once its last reference drops).
  bool unregister_model(std::string_view name, std::uint64_t version);

  /// lf_register_io: attach an input-collector/output-enforcer module.
  /// Throws std::invalid_argument if an installed active NN disagrees with
  /// the declared input/output sizes (the API's compatibility check).
  io_handle register_io(io_module_spec spec);

  /// lf_unregister_io.
  bool unregister_io(io_handle handle);

  /// lf_query_model (asynchronous): integer-domain inference through the
  /// active snapshot for `flow`, honoring the flow cache.  `done` receives
  /// the output vector; it fires with an empty vector if no model is active
  /// or the input size mismatches.
  void query_model(netsim::flow_id_t flow, std::vector<fp::s64> input,
                   std::function<void(std::vector<fp::s64>)> done);

  /// Synchronous variant: performs the same routing and accounting but
  /// returns immediately (used by modules that already run in CPU-gated
  /// context and by tests).  CPU cost is still charged (fire-and-forget).
  std::vector<fp::s64> query_model_sync(netsim::flow_id_t flow,
                                        std::span<const fp::s64> input);

  /// io_scale (the quantizer's C) of the active snapshot, 0 if none.
  fp::s64 active_io_scale() const;

  std::uint64_t queries() const noexcept { return queries_.value(); }
  std::size_t io_module_count() const noexcept { return io_modules_.size(); }

  /// Publish query count plus the router/cache/lock telemetry under
  /// "<prefix>.core.*".
  void register_metrics(metrics::registry& reg, const std::string& prefix);

  /// Attach the core rings to a trace collector: inference_begin/end spans
  /// under "<prefix>.core" (begin at query submission, end when the CPU
  /// services the inference — the gap is queueing + MAC service time) plus
  /// the router's snapshot/cache/lock rings.
  void register_trace(trace::collector& col, const std::string& prefix);

  /// Attach the adaptation health monitor: wires the nn_manager removal
  /// hook so the monitor's lifecycle ledger sees module unloads (deferred
  /// last-reference drops included).  No-op for a disabled monitor.
  void register_monitor(adaptation_monitor& monitor);

 private:
  double query_cost(const codegen::snapshot& snap) const noexcept;

  sim::simulation& sim_;
  kernelsim::cpu_model& cpu_;
  const kernelsim::cost_model& costs_;
  nn_manager manager_;
  inference_router router_;
  std::map<io_handle, io_module_spec> io_modules_;
  io_handle next_io_ = 1;
  metrics::counter queries_;
  trace::ring trace_{"core"};
  /// Reused across queries so the datapath inference allocates nothing
  /// beyond the caller-visible output vector (sim is single-threaded).
  mutable quant::inference_scratch scratch_;
};

}  // namespace lf::core
