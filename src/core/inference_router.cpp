#include "core/inference_router.hpp"

#include <stdexcept>

namespace lf::core {

inference_router::inference_router(sim::simulation& sim, nn_manager& manager,
                                   router_config config)
    : sim_{sim},
      manager_{manager},
      config_{config},
      lock_{sim},
      cache_{config.cache_initial_capacity},
      release_{[this](model_id m) { manager_.release(m); }} {}

void inference_router::install_standby(model_id id) {
  if (!manager_.get(id)) {
    throw std::invalid_argument{"install_standby: model not registered"};
  }
  // The standby slot itself keeps a reference so the module cannot be
  // unloaded between install and switch.
  if (standby_) manager_.release(*standby_);
  standby_ = id;
  manager_.add_ref(id);
  trace_.emit(sim_.now(), trace::event_type::snapshot_install, id);
}

double inference_router::switch_active() {
  if (!standby_) {
    // Explicit no-standby guard: flipping an empty optional into the active
    // slot would silently deactivate the datapath (every route() falling
    // back to nullopt).  A spurious switch request is an orchestration bug,
    // not a datapath error — count it and leave the active snapshot alone.
    noop_switches_.inc();
    return 0.0;
  }
  // The paper's flip is "3 lines of code" under one kernel lock.
  const double waited = lock_.acquire(config_.switch_lock_hold);
  std::swap(active_, standby_);
  switches_.inc();
  trace_.emit(sim_.now(), trace::event_type::snapshot_switch, *active_,
              static_cast<std::uint64_t>(waited * 1e9));
  // Drop the standby slot's reference on the demoted model; if nothing else
  // references it the caller can remove it.
  if (standby_) {
    manager_.release(*standby_);
    standby_.reset();
  }
  return waited;
}

std::optional<model_id> inference_router::route(netsim::flow_id_t flow) {
  if (!config_.flow_cache_enabled) {
    return active_;
  }
  const double now = sim_.now();
  // Amortized idle eviction: constant work per packet keeps the table free
  // of dead flows without a stop-the-world scan.
  if (config_.cache_evict_slots_per_route > 0) {
    cache_.step_evict(now, config_.cache_idle_timeout,
                      config_.cache_evict_slots_per_route, release_);
  }
  if (auto* e = cache_.find(flow)) {
    // Hit — but the pinned model may have been force-removed; fall back.
    if (manager_.get(e->model)) {
      hits_.inc();
      e->last_used = now;
      return e->model;
    }
    // Model already gone from the manager: drop the stale entry without a
    // release (the ref died with the force-removal).
    cache_.erase(flow, {});
  }
  misses_.inc();
  if (!active_) return std::nullopt;
  manager_.add_ref(*active_);
  cache_.insert(flow, *active_, now);
  return active_;
}

void inference_router::flow_finished(netsim::flow_id_t flow) {
  cache_.erase(flow, release_);
}

std::size_t inference_router::expire_idle() {
  return cache_.expire_idle(sim_.now(), config_.cache_idle_timeout, release_);
}

void inference_router::register_metrics(metrics::registry& reg,
                                        const std::string& prefix) {
  reg.register_counter(prefix + ".router.cache_hits", hits_);
  reg.register_counter(prefix + ".router.cache_misses", misses_);
  reg.register_counter(prefix + ".router.switches", switches_);
  reg.register_counter(prefix + ".router.switch_noops", noop_switches_);
  cache_.register_metrics(reg, prefix + ".router.cache");
  lock_.register_metrics(reg, prefix + ".router.lock");
}

void inference_router::register_trace(trace::collector& col,
                                      const std::string& prefix) {
  col.attach(trace_, prefix + ".router");
  cache_.register_trace(col, prefix + ".router.cache");
  lock_.register_trace(col, prefix + ".router.lock");
}

}  // namespace lf::core
