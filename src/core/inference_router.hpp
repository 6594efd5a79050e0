// Inference router with active/standby snapshots and a flow cache (§3.4).
//
// The router forwards inference requests to the *active* snapshot.  A new
// snapshot installs as *standby* — a potentially long operation that takes
// no lock because the datapath never touches the standby copy.  Switching
// roles flips one pointer under a spinlock held for nanoseconds.
//
// Flow consistency: the flow cache (an open-addressing kernel hash table:
// flow -> model, see core/flow_cache.hpp) pins every flow to the snapshot
// that served its first packet, so one flow never mixes decisions from two
// model generations (which would, e.g., make a CC flow's rate jump
// mid-connection).  Cached entries hold a reference on their
// model; FIN or idle-timeout eviction releases it, and a module becomes
// removable only at refcount zero.  Idle eviction is amortized into
// route(): every lookup also sweeps a couple of table slots, so stale flows
// drain without a periodic full scan.
#pragma once

#include <functional>
#include <optional>

#include "core/flow_cache.hpp"
#include "core/nn_manager.hpp"
#include "kernelsim/spinlock.hpp"
#include "netsim/packet.hpp"
#include "sim/sim.hpp"

namespace lf::core {

struct router_config {
  bool flow_cache_enabled = true;  ///< users may disable per function (§3.4)
  double cache_idle_timeout = 30.0;  ///< seconds; inactive entries evicted
  /// Spinlock hold time of the pointer flip ("3 lines of code").
  double switch_lock_hold = 20e-9;
  /// Table slots swept for idle entries on each route() call (0 disables
  /// the incremental sweep; expire_idle() then does all eviction).
  std::size_t cache_evict_slots_per_route = 2;
  /// Initial flow-cache capacity (rounded up to a power of two).
  std::size_t cache_initial_capacity = 1024;
};

class inference_router {
 public:
  inference_router(sim::simulation& sim, nn_manager& manager,
                   router_config config);

  /// Install a registered model as the standby snapshot (no lock taken).
  void install_standby(model_id id);

  /// Flip active/standby under the spinlock.  Returns the time the flip
  /// waited on the lock.  The old active becomes standby (and is typically
  /// removed by the caller once its refcount drains).  With no standby
  /// installed the switch is an explicit no-op: the active snapshot stays
  /// in place, no lock is taken, switch_noops() increments, and 0 is
  /// returned.
  double switch_active();

  /// Route one inference request: returns the snapshot that must serve
  /// this flow (honoring the flow cache), or nullopt if nothing is active.
  std::optional<model_id> route(netsim::flow_id_t flow);

  /// Flow terminated (TCP FIN): drop its cache entry, release the ref.
  void flow_finished(netsim::flow_id_t flow);

  /// Evict cache entries idle longer than the configured timeout.
  std::size_t expire_idle();

  std::optional<model_id> active() const noexcept { return active_; }
  std::optional<model_id> standby() const noexcept { return standby_; }

  std::uint64_t cache_hits() const noexcept { return hits_.value(); }
  std::uint64_t cache_misses() const noexcept { return misses_.value(); }
  std::uint64_t switches() const noexcept { return switches_.value(); }
  /// Switch requests that found no standby installed (no-ops).
  std::uint64_t switch_noops() const noexcept { return noop_switches_.value(); }
  std::size_t cache_size() const noexcept { return cache_.size(); }
  std::size_t cache_capacity() const noexcept { return cache_.capacity(); }
  const kernelsim::spinlock& lock() const noexcept { return lock_; }

  /// Publish router switch count + lock hold/wait accounting and the flow
  /// cache's hit/miss/eviction/scrub counters under "<prefix>.router.*".
  void register_metrics(metrics::registry& reg, const std::string& prefix);

  /// Attach the router's rings to a trace collector: snapshot
  /// install/switch events under "<prefix>.router", cache evictions under
  /// "<prefix>.router.cache", lock events under "<prefix>.router.lock".
  void register_trace(trace::collector& col, const std::string& prefix);

 private:
  sim::simulation& sim_;
  nn_manager& manager_;
  router_config config_;
  kernelsim::spinlock lock_;
  std::optional<model_id> active_;
  std::optional<model_id> standby_;
  flow_cache cache_;
  flow_cache::evict_fn release_;  ///< built once; evictions drop model refs
  metrics::counter hits_;
  metrics::counter misses_;
  metrics::counter switches_;
  metrics::counter noop_switches_;
  trace::ring trace_{"router"};
};

}  // namespace lf::core
