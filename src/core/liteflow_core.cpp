#include "core/liteflow_core.hpp"

#include <stdexcept>

namespace lf::core {
namespace {

/// The simulated kernel is one thread: one shard, one worker slot.
rt::engine_config sim_engine_config() {
  rt::engine_config cfg;
  cfg.shards = 1;
  cfg.max_workers = 1;
  return cfg;
}

}  // namespace

liteflow_core::liteflow_core(sim::simulation& sim, kernelsim::cpu_model& cpu,
                             const kernelsim::cost_model& costs,
                             bool flow_cache)
    : sim_{sim},
      cpu_{cpu},
      costs_{costs},
      flow_cache_{flow_cache},
      engine_{sim_engine_config()},
      worker_{engine_.register_worker()},
      flip_lock_{sim} {
  engine_.set_drain_observer([this](const rt::snapshot_version& v) {
    drained_.push_back(v.gen);
  });
}

std::uint64_t liteflow_core::register_model(codegen::snapshot snap) {
  // Shape compatibility against every attached IO module (the paper's
  // lf_register_io check runs both ways).
  for (const auto& [h, spec] : io_modules_) {
    if (spec.input_size != snap.input_size() ||
        spec.output_size != snap.output_size()) {
      throw std::invalid_argument{
          "register_model: shape incompatible with io module '" + spec.name +
          "'"};
    }
  }
  for (const auto& [gen, id] : loaded_) {
    if (id.first == snap.name && id.second == snap.version) {
      throw std::invalid_argument{"register_model: duplicate model " +
                                  snap.name + " v" +
                                  std::to_string(snap.version)};
    }
  }
  std::pair<std::string, std::uint64_t> id{snap.name, snap.version};
  const std::uint64_t gen = engine_.install(std::move(snap));
  loaded_.emplace(gen, std::move(id));
  router_trace_.emit(sim_.now(), trace::event_type::snapshot_install, gen);
  settle();
  return gen;
}

double liteflow_core::switch_active(install_observation* ledger) {
  if (!engine_.snapshots().has_standby()) {
    // Flipping an empty standby would deactivate the datapath; the engine
    // counts the request as a no-op and takes no lock.
    engine_.switch_active();
    return 0.0;
  }
  // Read the demoted version before the flip drops its ownership pin.
  const rt::snapshot_version* prev = active_version();
  const std::uint64_t prev_gen = prev != nullptr ? prev->gen : 0;
  const std::uint64_t prev_pins = prev != nullptr ? prev->pins.load() : 0;
  // The paper's flip is "3 lines of code" under one kernel lock.
  const double waited = flip_lock_.acquire(costs_.router_switch_lock_hold);
  engine_.switch_active();
  const std::uint64_t gen = active_version()->gen;
  router_trace_.emit(sim_.now(), trace::event_type::snapshot_switch, gen,
                     static_cast<std::uint64_t>(waited * 1e9));
  if (monitor_ != nullptr && ledger != nullptr) {
    ledger->model = gen;
    ledger->prev_model = prev_gen;
    ledger->prev_pinned = prev_pins;
    ledger->switch_wait_seconds = waited;
    monitor_->on_snapshot_install(sim_.now(), *ledger);
  }
  settle();
  return waited;
}

io_handle liteflow_core::register_io(io_module_spec spec) {
  if (spec.input_size == 0 || spec.output_size == 0) {
    throw std::invalid_argument{"register_io: zero-sized interface"};
  }
  if (const codegen::snapshot* snap = active_snapshot()) {
    if (snap->input_size() != spec.input_size ||
        snap->output_size() != spec.output_size) {
      throw std::invalid_argument{
          "register_io: installed NN shape mismatch for '" + spec.name + "'"};
    }
  }
  const io_handle handle = next_io_++;
  io_modules_.emplace(handle, std::move(spec));
  return handle;
}

bool liteflow_core::unregister_io(io_handle handle) {
  return io_modules_.erase(handle) > 0;
}

double liteflow_core::query_cost(const codegen::snapshot& snap) const noexcept {
  return costs_.snapshot_query_overhead +
         static_cast<double>(snap.program.mac_count()) *
             costs_.snapshot_mac_cost;
}

rt::snapshot_version* liteflow_core::pin(netsim::flow_id_t flow) {
  rt::epoch_domain::guard g{engine_.epochs(), worker_.epoch_slot()};
  if (!flow_cache_) return engine_.snapshots().pin_active();
  rt::snapshot_version* v = engine_.resolve(worker_, flow, sim_.now());
  // One thread: the count is nonzero (the flow's cache entry holds a pin,
  // or its L1 binding's unchanged switch epoch proves it has not drained)
  // and nothing else can drop it before this add.
  if (v != nullptr) v->pins.fetch_add(1);
  return v;
}

void liteflow_core::unpin(rt::snapshot_version* v) {
  engine_.snapshots().unpin(v);
}

rt::snapshot_version* liteflow_core::active_version() {
  rt::epoch_domain::guard g{engine_.epochs(), worker_.epoch_slot()};
  rt::snapshot_version* v = engine_.snapshots().pin_active();
  if (v != nullptr) unpin(v);  // its ownership pin outlives the guard
  return v;
}

void liteflow_core::query_model(netsim::flow_id_t flow,
                                std::vector<fp::s64> input,
                                std::function<void(std::vector<fp::s64>)> done) {
  queries_.inc();
  rt::snapshot_version* v = pin(flow);
  if (v == nullptr || input.size() != v->snap.input_size()) {
    if (v != nullptr) unpin(v);
    settle();
    if (done) done({});
    return;
  }
  // The pin keeps the version loaded while the inference is queued on the
  // CPU — a snapshot update may otherwise unload it before the work runs.
  trace_.emit(sim_.now(), trace::event_type::inference_begin, flow, v->gen);
  cpu_.submit(kernelsim::task_category::datapath, query_cost(v->snap),
              [this, flow, v, input = std::move(input),
               done = std::move(done)]() {
                std::vector<fp::s64> out(v->snap.output_size());
                v->snap.program.infer_into(input, out, scratch_);
                trace_.emit(sim_.now(), trace::event_type::inference_end,
                            flow, v->gen);
                unpin(v);
                settle();
                if (done) done(std::move(out));
              });
  settle();
}

std::uint64_t liteflow_core::route(netsim::flow_id_t flow) {
  rt::snapshot_version* v = pin(flow);
  const std::uint64_t gen = v != nullptr ? v->gen : 0;
  if (v != nullptr) unpin(v);
  settle();
  return gen;
}

void liteflow_core::flow_finished(netsim::flow_id_t flow) {
  engine_.flow_finished(worker_, flow);
  settle();
}

const codegen::snapshot* liteflow_core::active_snapshot() {
  const rt::snapshot_version* v = active_version();
  return v != nullptr ? &v->snap : nullptr;
}

fp::s64 liteflow_core::active_io_scale() {
  const codegen::snapshot* snap = active_snapshot();
  return snap != nullptr ? snap->program.io_scale() : 0;
}

void liteflow_core::settle() {
  if (!drained_.empty()) {
    // No epoch guard is open between operations, so the grace period has
    // passed and maintain() frees the drained versions now.
    engine_.maintain();
    for (const std::uint64_t gen : drained_) {
      loaded_.erase(gen);
      if (monitor_ != nullptr) monitor_->on_snapshot_removed(sim_.now(), gen);
    }
    drained_.clear();
  }
  const rt::sharded_flow_cache::totals c = engine_.cache().stats();
  cache_hits_.set(
      static_cast<double>(worker_.l1_hits() + worker_.cache_hits()));
  cache_misses_.set(static_cast<double>(worker_.cache_misses()));
  versions_live_.set(static_cast<double>(engine_.versions_live()));
  versions_retired_.set(static_cast<double>(engine_.versions_retired()));
  occupancy_.set(static_cast<double>(c.size));
  evictions_.set(static_cast<double>(c.evictions));
  rehashes_.set(static_cast<double>(c.rehashes));
}

void liteflow_core::register_metrics(metrics::registry& reg,
                                     const std::string& prefix) {
  const std::string base = prefix + ".core";
  reg.register_counter(base + ".queries", queries_);
  engine_.snapshots().register_metrics(reg, base + ".router");
  reg.register_gauge(base + ".router.cache_hits", cache_hits_);
  reg.register_gauge(base + ".router.cache_misses", cache_misses_);
  reg.register_gauge(base + ".router.versions_live", versions_live_);
  reg.register_gauge(base + ".router.versions_retired", versions_retired_);
  reg.register_gauge(base + ".router.cache.occupancy", occupancy_);
  reg.register_gauge(base + ".router.cache.evictions", evictions_);
  reg.register_gauge(base + ".router.cache.rehashes", rehashes_);
  flip_lock_.register_metrics(reg, base + ".router.lock");
}

void liteflow_core::register_trace(trace::collector& col,
                                   const std::string& prefix) {
  const std::string base = prefix + ".core";
  col.attach(trace_, base);
  col.attach(router_trace_, base + ".router");
  flip_lock_.register_trace(col, base + ".router.lock");
}

void liteflow_core::register_monitor(adaptation_monitor& monitor) {
  if (monitor.enabled()) monitor_ = &monitor;
}

}  // namespace lf::core
