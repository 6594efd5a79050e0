// LiteFlow core module facade (§4.2, Table 1).
//
// Exposes the four paper APIs:
//   lf_register_model  -> register_model()  (installs the snapshot as standby)
//   lf_register_io     -> register_io()     (validates NN shape compatibility)
//   lf_unregister_io   -> unregister_io()
//   lf_query_model     -> query_model()     (unified inference interface)
// plus the §3.4 active/standby flip, switch_active(), and flow_finished().
//
// Every query, install and flip goes through one rt::datapath_engine with
// one shard and one registered worker, driven from the simulation's single
// thread with simulation time as `now`.  The paper figures therefore run the
// active/standby slots, flow cache and version pins that perfbench,
// rt_harness and the TSan suites drive.  The flow cache pins each flow to
// the generation that served its first query until its FIN or a 30 s idle
// timeout; with the cache off (§3.4 fn. 2; congestion control's choice)
// every query pins the active version instead.
//
// query_model runs on the simulated kernel CPU: the caller's callback fires
// after the snapshot's MAC count worth of integer work has been serviced,
// so inference contends with packet processing exactly as in a real kernel.
// A queued query keeps a pin on its version until the CPU runs it, so a
// demoted version unloads when its last pinned flow and its last queued
// query are gone; the adaptation monitor's ledger records that instant.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/adaptation_monitor.hpp"
#include "kernelsim/cost_model.hpp"
#include "kernelsim/cpu.hpp"
#include "kernelsim/spinlock.hpp"
#include "rt/engine.hpp"

namespace lf::core {

using io_handle = std::uint64_t;

struct io_module_spec {
  std::string name;
  std::size_t input_size = 0;
  std::size_t output_size = 0;
};

class liteflow_core {
 public:
  /// `flow_cache` is the per-function switch of §3.4 fn. 2: off, every
  /// query is served by the active version.
  liteflow_core(sim::simulation& sim, kernelsim::cpu_model& cpu,
                const kernelsim::cost_model& costs, bool flow_cache = true);

  liteflow_core(const liteflow_core&) = delete;
  liteflow_core& operator=(const liteflow_core&) = delete;

  /// lf_register_model: install `snap` as the standby version.  Takes no
  /// lock (the datapath never reads the standby) and retires a standby
  /// that was never switched in.  Returns the generation it serves under.
  /// Throws std::invalid_argument if an attached IO module disagrees with
  /// its shape or a loaded version has the same name and version.
  std::uint64_t register_model(codegen::snapshot snap);

  /// Flip the standby active: one pointer exchange, charged
  /// cost_model::router_switch_lock_hold on the simulated flip lock.
  /// Returns the time the flip waited on that lock; with no standby
  /// installed it is a counted no-op that returns 0.  With a monitor
  /// attached, `ledger` opens the new version's lifecycle row: the core
  /// fills in its model, prev_model, prev_pinned and switch_wait_seconds,
  /// and records the row before the demoted version's unload (at the flip,
  /// if nothing pins it).
  double switch_active(install_observation* ledger = nullptr);

  /// lf_register_io: attach an input-collector/output-enforcer module.
  /// Throws std::invalid_argument if an installed active NN disagrees with
  /// the declared input/output sizes (the API's compatibility check).
  io_handle register_io(io_module_spec spec);

  /// lf_unregister_io.
  bool unregister_io(io_handle handle);

  /// lf_query_model (asynchronous): integer-domain inference through the
  /// version that serves `flow`.  `done` receives the output vector; it
  /// fires with an empty vector if no model is active or the input size
  /// mismatches.
  void query_model(netsim::flow_id_t flow, std::vector<fp::s64> input,
                   std::function<void(std::vector<fp::s64>)> done);

  /// The generation that serves `flow`, resolved as lf_query_model resolves
  /// it (a flow-cache miss pins the flow) but without inference; 0 if
  /// nothing is active.
  std::uint64_t route(netsim::flow_id_t flow);

  /// TCP FIN: drop the flow's cache entry and its pin.
  void flow_finished(netsim::flow_id_t flow);

  /// The active version's snapshot (program, name and version; its
  /// c_source is empty once installed), nullptr if none.  Valid until the
  /// next switch_active().
  const codegen::snapshot* active_snapshot();

  /// io_scale (the quantizer's C) of the active snapshot, 0 if none.
  fp::s64 active_io_scale();

  /// Read-only view of the engine: version counts, switches, the cache.
  const rt::datapath_engine& engine() const noexcept { return engine_; }

  std::uint64_t queries() const noexcept { return queries_.value(); }
  std::size_t io_module_count() const noexcept { return io_modules_.size(); }

  /// Publish the query count and the router telemetry under
  /// "<prefix>.core.*": router.{installs,switches,switch_noops} (counters),
  /// router.{cache_hits,cache_misses,versions_live,versions_retired} and
  /// router.cache.{occupancy,evictions,rehashes} (gauges; hits count L1
  /// and shard hits), and the flip lock under router.lock.*.
  void register_metrics(metrics::registry& reg, const std::string& prefix);

  /// Attach the core rings to a trace collector: inference_begin/end spans
  /// under "<prefix>.core" (begin at query submission, end when the CPU
  /// services the inference — the gap is queueing + MAC service time),
  /// snapshot_install/snapshot_switch under "<prefix>.core.router" and the
  /// flip lock's events under "<prefix>.core.router.lock".
  void register_trace(trace::collector& col, const std::string& prefix);

  /// Attach the adaptation health monitor: switch_active() opens its
  /// ledger rows and every unload stamps removed_time.  No-op for a
  /// disabled monitor.
  void register_monitor(adaptation_monitor& monitor);

 private:
  /// The version that serves `flow`, with one pin for the caller (release
  /// with unpin()); nullptr if nothing is active.
  rt::snapshot_version* pin(netsim::flow_id_t flow);
  void unpin(rt::snapshot_version* v);
  /// The active version, nullptr if none.  Its ownership pin keeps it
  /// loaded until the next flip.
  rt::snapshot_version* active_version();
  /// Close out an operation: free the versions it drained, stamp their
  /// unloads in the monitor's ledger, and refresh the telemetry gauges.
  void settle();
  double query_cost(const codegen::snapshot& snap) const noexcept;

  sim::simulation& sim_;
  kernelsim::cpu_model& cpu_;
  const kernelsim::cost_model& costs_;
  const bool flow_cache_;
  adaptation_monitor* monitor_ = nullptr;  ///< non-null only when enabled
  /// (name, version) of every loaded generation: the duplicate check.
  std::map<std::uint64_t, std::pair<std::string, std::uint64_t>> loaded_;
  /// Generations whose last pin dropped during the current operation.
  /// Declared before engine_, whose teardown still reports drains here.
  std::vector<std::uint64_t> drained_;
  rt::datapath_engine engine_;
  rt::worker_handle& worker_;
  kernelsim::spinlock flip_lock_;
  std::map<io_handle, io_module_spec> io_modules_;
  io_handle next_io_ = 1;
  metrics::counter queries_;
  metrics::gauge cache_hits_;
  metrics::gauge cache_misses_;
  metrics::gauge versions_live_;
  metrics::gauge versions_retired_;
  metrics::gauge occupancy_;
  metrics::gauge evictions_;
  metrics::gauge rehashes_;
  trace::ring trace_{"core"};
  trace::ring router_trace_{"router"};
  /// Reused across queries so the datapath inference allocates nothing
  /// beyond the caller-visible output vector (sim is single-threaded).
  quant::inference_scratch scratch_;
};

}  // namespace lf::core
