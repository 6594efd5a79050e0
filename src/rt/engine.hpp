// Datapath engine: the repository's one §3.4 implementation.
//
// N worker threads route flows and execute compiled integer inference while
// one writer installs standby snapshots lock-free and flips the active
// pointer under a nanoseconds-held rt::spinlock.  The simulated stack is the
// one-thread case: core::liteflow_core owns an engine with one shard and one
// worker, passes simulation time as `now`, and serves every paper figure
// through it, so the figures run the code the TSan suites stress.
//
// Multi-model serving: one engine hosts `engine_config::models` logical
// models.  Each gets its own snapshot_handle (its own active/standby pair
// and flip lock), but ALL of them share one epoch domain, one
// version_reclaim (hence ONE switch-epoch counter), one sharded flow cache
// and one per-worker L1 — routing keys both caches by
// core::composite_flow_key(model, flow), so the L1 tag doubles as the model
// tag and a single stale-epoch check still covers every model.  Model 0
// through the keyless legacy API is bit-compatible with the single-model
// engine (composite key 0|flow == flow).
//
// Read-path layering (fastest first):
//   L1    per-worker direct-mapped key→version cache inside worker_handle.
//         No atomics beyond one switch-epoch load; entries are stamped with
//         snapshot_handle::switch_epoch() and rejected after any flip or
//         version retirement (see snapshot_handle.hpp for why the epoch
//         guard then keeps the raw pointer dereferenceable).
//   L2    sharded_flow_cache: seqlock-validated lock-free probe; the shard
//         spinlock is touched only by insert/erase/evict/rehash.
//   miss  pin_active() + insert (pin transfer), under the shard lock.
//
// An L1 entry records when its flow last reached the L2, and a hit on an
// entry older than the cache's refresh_interval() (idle_timeout / 64) falls
// through to the L2 probe, which keeps the entry's last-used stamp moving:
// the idle sweep never evicts a flow whose traffic the L1 absorbed, however
// many or few packets it sends.
//
// Shadow scoring (scalar route path only): with a nonzero
// engine_config::shadow.sample_rate, routes on the deterministic sampled
// slice also run the model's standby snapshot (peek_shadow — dereferenced
// inside the same epoch guard, never pinned) and fold the output divergence
// into a per-model, spinlocked scorer.  try_switch() consults that evidence
// and refuses a flip whose candidate diverges beyond the threshold.  The
// batch path deliberately does not shadow: it exists to measure peak
// routing throughput, and harnesses that want shadow coverage route the
// sampled slice through route().
//
// Composition:
//   epoch_domain        grace periods for the lock-free read path
//   snapshot_handle     active/standby flip + pin-gated, epoch-deferred
//                       version retirement (one per model)
//   version_reclaim     the shared switch epoch + zombie/live accounting
//   sharded_flow_cache  per-flow model pinning (flow consistency invariant)
//
// Time is caller-supplied (seconds on any monotonic clock shared by the
// threads): the stress harness passes wall time, the simulated stack its
// simulation time, the deterministic tests scripted instants.  The engine
// never reads a clock itself, which is what keeps the 2-thread
// interleaving tests reproducible.
//
// What this deliberately does NOT do: charge simulated cost, or order
// operations across threads.  In the simulated stack, core::liteflow_core
// charges the flip's cost_model::router_switch_lock_hold on a
// kernelsim::spinlock and each query's MACs on the simulated CPU; the
// engine only decides which version serves a flow and when a demoted
// version drains.  The simulated stack is deterministic because it calls
// the engine from one thread; the multi-thread callers (the harness,
// perfbench, the TSan suites) only sample interleavings.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include <memory>

#include "codegen/snapshot.hpp"
#include "core/model_domain.hpp"
#include "quant/quantized_mlp.hpp"
#include "rt/epoch.hpp"
#include "rt/flight_recorder.hpp"
#include "rt/sharded_flow_cache.hpp"
#include "rt/snapshot_handle.hpp"
#include "util/fixed_point.hpp"
#include "util/latency_histogram.hpp"
#include "util/metrics.hpp"

namespace lf::rt {

struct engine_config {
  /// Flow-cache shards.  0 (the default) derives the count from
  /// `max_workers`: the next power of two >= 2x the worker budget, so the
  /// shard count scales with the deployment instead of being a fixed 8.
  /// Explicit values are rounded up to a power of two.
  std::size_t shards = 0;
  double idle_timeout = 30.0;    ///< seconds before idle eviction
  std::size_t max_workers = 64;  ///< epoch reader slots preallocated
  /// Per-worker L1 route-cache slots (rounded up to a power of two);
  /// 0 disables the L1 so benches can measure the L2 path in isolation.
  std::size_t l1_slots = 64;
  /// Logical models served by this engine (clamped to >= 1; at most
  /// core::k_max_models, the composite key's model bits).  Model keys are
  /// 0..models-1.
  std::size_t models = 1;
  /// Probation / gate-aware rollback: hold the outgoing version for this
  /// many stats-sampler windows after every switch (instead of demoting it
  /// at flip time) so a post-switch regression can auto-rollback.  0 = off:
  /// the historical demote-at-flip behavior, with byte-identical clean-run
  /// artifacts.
  std::size_t probation_windows = 0;
  /// Shadow scoring and switch gating (rate 0 = off, zero overhead).
  core::shadow_config shadow{};
  /// Latency histograms + flight recorder (off by default).
  telemetry_config telemetry{};
};

struct route_result {
  std::uint64_t gen = 0;  ///< generation that served the packet; 0 = none
  bool hit = false;       ///< flow-cache hit (pinned generation reused)
  bool served = false;    ///< inference executed into `out`
};

/// Outcome of one try_switch() consultation.
struct switch_outcome {
  enum class result : std::uint8_t {
    flipped,       ///< active/standby exchanged
    no_standby,    ///< nothing to switch to (counted no-op)
    gate_blocked,  ///< standby present but shadow divergence refused it
  };
  result status = result::no_standby;
  core::shadow_verdict verdict{};  ///< evidence at the moment of the ruling

  bool flipped() const noexcept { return status == result::flipped; }
};

/// Per-worker state: the epoch reader slot, the inference scratch, the
/// direct-mapped L1 route cache, the latency histogram, and the worker's own
/// counters.  Counters and histogram buckets are single-writer relaxed
/// atomics (metrics::atomic_counter semantics): only the owning worker
/// mutates them, so increments stay RMW-free, while the stats sampler and a
/// mid-run publish_stats() read recent untorn values from other threads.
/// Over-aligned so adjacent workers in the engine's deque never false-share
/// a cache line on the hot counters.
class alignas(128) worker_handle {
 public:
  std::uint64_t routes() const noexcept { return routes_.value(); }
  std::uint64_t l1_hits() const noexcept { return l1_hits_.value(); }
  std::uint64_t cache_hits() const noexcept { return hits_.value(); }
  std::uint64_t cache_misses() const noexcept { return misses_.value(); }
  std::uint64_t inferences() const noexcept { return infers_.value(); }
  std::uint64_t shadow_inferences() const noexcept {
    return shadow_infers_.value();
  }
  std::uint64_t fins() const noexcept { return fins_.value(); }
  std::uint64_t batches() const noexcept { return batches_.value(); }
  std::size_t epoch_slot() const noexcept { return slot_; }
  std::size_t l1_capacity() const noexcept { return l1_.size(); }
  /// This worker's route-latency histogram (empty unless
  /// telemetry_config::latency is on).  Readable from any thread.
  const metrics::latency_histogram& latency() const noexcept { return lat_; }

  /// Publish this worker's counters under "<prefix>.routes", ".hits", ...
  void register_metrics(metrics::registry& reg, const std::string& prefix);

 private:
  friend class datapath_engine;

  /// One L1 binding: serve composite `key` from `ver` for as long as the
  /// global switch epoch still equals `epoch` (0 = never valid; epochs
  /// start at 1) and `l2_at`, when the flow last reached the L2, is less
  /// than the cache's refresh interval ago.  The key's top bits carry the
  /// model, so the slot hash and the tag match both model and flow with no
  /// extra field.
  struct l1_entry {
    netsim::flow_id_t key = 0;
    snapshot_version* ver = nullptr;
    std::uint64_t epoch = 0;
    double l2_at = 0.0;
  };

  l1_entry& l1_slot(netsim::flow_id_t key) noexcept {
    // Fibonacci top-bits: one multiply, decorrelated from both the shard
    // index (splitmix top bits) and the in-shard bucket (splitmix low bits).
    return l1_[(key * l1_mul_) >> l1_shift_];
  }

  std::size_t slot_ = 0;
  quant::inference_scratch scratch_;
  std::vector<l1_entry> l1_;  ///< direct-mapped; sized by engine_config
  /// The Fibonacci multiplier, or 0 for a one-slot L1: there every key
  /// hashes to slot 0, and l1_shift_ stays below 64.
  std::uint64_t l1_mul_ = 0x9e3779b97f4a7c15ULL;
  unsigned l1_shift_ = 63;  ///< 64 - log2(slots), 63 for one slot
  std::vector<snapshot_version*> batch_vers_;  ///< route_batch scratch
  std::vector<fp::s64> shadow_out_;  ///< standby-output staging (no alloc/route)
  metrics::latency_histogram lat_;   ///< route latency (telemetry.latency)
  std::uint64_t lat_tick_ = 0;       ///< latency sampling counter
  trace::ring* bb_ = nullptr;        ///< this worker's flight-recorder ring
  std::uint64_t bb_tick_ = 0;        ///< route-summary sampling counter
  metrics::atomic_counter routes_;
  metrics::atomic_counter l1_hits_;
  metrics::atomic_counter hits_;
  metrics::atomic_counter misses_;
  metrics::atomic_counter infers_;
  metrics::atomic_counter shadow_infers_;
  metrics::atomic_counter fins_;
  metrics::atomic_counter batches_;
};

class datapath_engine {
 public:
  /// Throws std::invalid_argument, before it allocates anything, when
  /// `cfg.models` exceeds core::k_max_models.
  explicit datapath_engine(engine_config cfg = {});

  datapath_engine(const datapath_engine&) = delete;
  datapath_engine& operator=(const datapath_engine&) = delete;

  /// Teardown: requires worker threads joined.  Drains the flow cache and
  /// waits out the final grace period.
  ~datapath_engine();

  // ------------------------------------------------------------- writer --

  /// Install a generated snapshot as one model's standby (no lock; readers
  /// unaffected).  Returns the generation number it will serve under
  /// (generations are per-model).  The keyless form serves model 0.
  std::uint64_t install(codegen::snapshot snap) {
    return install(core::k_default_model, std::move(snap));
  }
  std::uint64_t install(core::model_key model, codegen::snapshot snap);

  /// Flip active/standby (spinlock'd pointer exchange).  False + counter
  /// when no standby is installed.  Bypasses the shadow gate — this is the
  /// unconditioned flip single-model harnesses and tests exercise.
  bool switch_active() { return switch_active(core::k_default_model); }
  bool switch_active(core::model_key model);

  /// Shadow-gated flip: consult the model's divergence evidence first.
  /// With shadowing off (rate 0), no gate, or no incumbent active this
  /// degrades to switch_active().
  switch_outcome try_switch(core::model_key model);

  /// Retire/reclaim demoted versions whose pins and epochs have drained.
  std::size_t maintain();

  /// Roll back `model`'s last switch: re-promote the probation-held
  /// previous version through the flip critical section (switch-epoch bump,
  /// L1 invalidation) and demote the regressed incumbent into the ordinary
  /// retire path.  Resets the model's shadow evidence (it was measured
  /// against the regressed active).  Counted no-op (false) when no hold is
  /// open — probation off, expired, or already rolled back.  Callable from
  /// the sampler thread; this is the rollback policy's entry point.
  bool try_rollback(core::model_key model);

  /// Advance every model's probation clock one stats-sampler window; holds
  /// older than engine_config::probation_windows close cleanly (the
  /// historical demote + retire).  No-op when probation is off.  Returns
  /// the number of holds closed this tick.
  std::size_t probation_tick();

  /// Close every open probation hold (clean retire, as if each had aged
  /// out).  Orderly-shutdown path: call before drain accounting so a hold
  /// opened by the final switch is not mistaken for a version leak.
  std::size_t close_probation();

  /// Probation status of one model (all-zero when no hold is open).
  snapshot_handle::probation_status probation(core::model_key model) const {
    return handles_[model].probation();
  }

  // ------------------------------------------------------------ readers --

  /// Register the calling worker thread.  Thread-safe; the returned
  /// reference is stable for the engine's lifetime.
  worker_handle& register_worker();

  /// Route one packet of `flow` at time `now` and run inference.
  /// `input`/`out` must match the installed program's input/output sizes;
  /// pass empty spans to route without inferring (tests).  The flow is
  /// served by its pinned generation if cached (L1 first, then the sharded
  /// cache), else pins the current active.  Returns gen 0 (and no insert)
  /// when nothing is active.  The keyless form serves model 0.
  route_result route(worker_handle& w, netsim::flow_id_t flow, double now,
                     std::span<const fp::s64> input, std::span<fp::s64> out) {
    return route(w, core::k_default_model, flow, now, input, out);
  }
  route_result route(worker_handle& w, core::model_key model,
                     netsim::flow_id_t flow, double now,
                     std::span<const fp::s64> input, std::span<fp::s64> out);

  /// Batched routing: route `flows.size()` packets of ONE model under ONE
  /// epoch-guard entry/exit and ONE switch-epoch load, then feed runs of
  /// same-version flows through one batched weight pass
  /// (quantized_mlp::infer_batch_into).  `inputs` is row-major
  /// flows.size() x input_size, `outs` row-major flows.size() x output_size;
  /// pass empty spans to route without inferring.  `results` must have at
  /// least flows.size() entries; each is filled exactly as the scalar
  /// route() would.  Returns the number of packets actually served with
  /// inference.  Does NOT shadow-score (see the file comment).
  std::size_t route_batch(worker_handle& w,
                          std::span<const netsim::flow_id_t> flows, double now,
                          std::span<const fp::s64> inputs,
                          std::span<fp::s64> outs,
                          std::span<route_result> results) {
    return route_batch(w, core::k_default_model, flows, now, inputs, outs,
                       results);
  }
  std::size_t route_batch(worker_handle& w, core::model_key model,
                          std::span<const netsim::flow_id_t> flows, double now,
                          std::span<const fp::s64> inputs,
                          std::span<fp::s64> outs,
                          std::span<route_result> results);

  /// TCP FIN: drop the flow's pin and the calling worker's L1 binding.
  /// False if the flow was not cached.  FINs for a flow must come from the
  /// worker that routes it (other workers' L1 entries for the flow stay
  /// valid until the next switch epoch bump — safe, but they would keep
  /// serving the old binding until then).
  bool flow_finished(worker_handle& w, netsim::flow_id_t flow) {
    return flow_finished(w, core::k_default_model, flow);
  }
  bool flow_finished(worker_handle& w, core::model_key model,
                     netsim::flow_id_t flow);

  /// route() without the inference, for callers that run it themselves
  /// (the simulated stack runs it when its CPU reaches the query): resolve
  /// model 0's `flow` at `now` exactly as route() does and return the
  /// serving version, or nullptr when nothing is active.  Call inside `w`'s
  /// epoch guard; the pointer is valid until the guard closes.
  snapshot_version* resolve(worker_handle& w, netsim::flow_id_t flow,
                            double now);

  /// Full idle expiry across all shards (maintenance).
  std::size_t expire_idle(double now);

  /// Observe drains: `fn` gets every version whose last pin drops, on the
  /// thread that dropped it (see version_reclaim::on_drain).  Set it before
  /// any worker runs.  The simulated stack stamps unloads with it.
  void set_drain_observer(std::function<void(const snapshot_version&)> fn) {
    reclaim_.on_drain = std::move(fn);
  }

  // ------------------------------------------------------------- status --

  bool has_active() const noexcept { return handles_[0].has_active(); }
  bool has_active(core::model_key model) const noexcept {
    return handles_[model].has_active();
  }
  /// Writer counters summed across every model's handle.
  std::uint64_t installs() const noexcept;
  std::uint64_t switches() const noexcept;
  std::uint64_t switch_noops() const noexcept;
  /// Switches refused by the shadow-divergence gate.
  std::uint64_t gate_blocks() const noexcept { return gate_blocks_.value(); }
  /// Rollbacks executed / refused-for-no-hold, summed over all models.
  std::uint64_t rollbacks() const noexcept;
  std::uint64_t rollback_noops() const noexcept;
  /// Probation holds that closed cleanly (expiry, supersede, teardown).
  std::uint64_t probation_retires() const noexcept;
  /// Shadow samples dropped for carrying a stale candidate generation
  /// (install replaced the candidate mid-measurement), summed over models.
  std::uint64_t shadow_gen_drops() const;
  /// Version lifecycle accounting (shared reclaim domain, all models).
  std::uint64_t versions_retired() const noexcept {
    return handles_[0].retired();
  }
  std::uint64_t versions_live() const noexcept {
    return handles_[0].live_versions();
  }
  /// Shadow evidence currently accumulated for one model.
  core::shadow_verdict shadow_evidence(core::model_key model) const;
  /// Standby inferences run by the shadow sampler, summed over all workers.
  /// Safe mid-run (single-writer atomic counters).
  std::uint64_t shadow_inferences() const;

  /// One coherent-enough snapshot of every live counter the stats sampler
  /// windows over.  Each field is individually untorn and monotonic; the
  /// set is not transactional (fields may be a few events apart).
  struct live_counters {
    std::uint64_t routes = 0;
    std::uint64_t l1_hits = 0;
    std::uint64_t l2_hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inferences = 0;
    std::uint64_t shadow_inferences = 0;
    std::uint64_t fins = 0;
    std::uint64_t batches = 0;
    std::uint64_t cache_size = 0;
    std::uint64_t cache_evictions = 0;
    std::uint64_t lock_acquisitions = 0;
    std::uint64_t lock_contended = 0;
    std::uint64_t read_retries = 0;
    std::uint64_t read_fallbacks = 0;
    std::uint64_t installs = 0;
    std::uint64_t switches = 0;
    std::uint64_t switch_noops = 0;
    std::uint64_t gate_blocks = 0;
    std::uint64_t versions_live = 0;
    std::uint64_t versions_retired = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t rollback_noops = 0;
  };

  /// Relaxed mid-run snapshot of the engine-wide counters (any thread).
  live_counters counters_now() const;

  /// Merge every worker's latency histogram into `out` (any thread).
  void latency_snapshot_into(metrics::latency_snapshot& out) const;

  /// The flight recorder, or nullptr when telemetry.blackbox_events == 0.
  flight_recorder* recorder() noexcept { return recorder_.get(); }

  /// Record a flow-consistency violation into the flight recorder (the
  /// worker's ring AND the control ring, so a dump finds it even if one
  /// ring's history was overwritten).  No-op without a recorder.
  void record_violation(worker_handle& w, netsim::flow_id_t key,
                        std::uint64_t expected_gen,
                        std::uint64_t observed_gen) noexcept;

  /// Mirror one control-plane pipeline stage (train/freeze/quantize/…)
  /// into the flight recorder's control ring, so an anomaly dump shows what
  /// the slow path was doing when the datapath degraded.  Call from the
  /// writer/admin threads (the control ring's fetch_add head makes the emit
  /// safe there).  No-op without a recorder.
  void record_lifecycle(trace::lifecycle_phase phase, core::model_key model,
                        std::uint64_t version,
                        std::uint64_t cost_ns = 0) noexcept;
  std::size_t cached_flows() const { return cache_.stats().size; }
  std::size_t model_count() const noexcept { return handles_.size(); }
  const engine_config& config() const noexcept { return cfg_; }
  epoch_domain& epochs() noexcept { return epochs_; }
  snapshot_handle& snapshots() noexcept { return handles_[0]; }
  snapshot_handle& snapshots(core::model_key model) noexcept {
    return handles_[model];
  }
  sharded_flow_cache& cache() noexcept { return cache_; }
  const sharded_flow_cache& cache() const noexcept { return cache_; }

  /// Shard count an engine_config resolves to: explicit values round up to
  /// a power of two, 0 derives next_pow2(2 * max_workers).  Exposed so the
  /// config test and the harness can assert the policy without building an
  /// engine.
  static std::size_t resolved_shards(const engine_config& cfg) noexcept;

  /// Register writer counters plus post-run aggregate gauges under
  /// "<prefix>.*"; call publish_stats() after the workers stop to fill the
  /// aggregates before reading the registry.  Model 0's handle registers
  /// under "<prefix>.snapshots" (single-model names unchanged); additional
  /// models register under "<prefix>.snapshots.m<k>".
  void register_metrics(metrics::registry& reg, const std::string& prefix);

  /// Snapshot the sharded-cache totals, version lifecycle, and the derived
  /// lock-pressure rates (lock.per_route, lock.contended_ratio, l1.hit_rate)
  /// into the registered gauges.  Safe to call MID-RUN from any thread:
  /// every input is a single-writer relaxed atomic (worker counters, shard
  /// bookkeeping, spinlock accounting), so the gauges get a recent untorn
  /// view while workers keep routing.  Call again after join for exact
  /// end-of-run numbers.
  void publish_stats();

 private:
  /// Shared resolve step of route()/route_batch(): L1, then the lock-free
  /// shard probe, then the pin+insert miss path.  `key` is the composite
  /// (model, flow) key and `h` the model's handle.  Must be called inside
  /// the worker's epoch guard with `se` loaded inside that same guard.
  snapshot_version* resolve_flow(worker_handle& w, snapshot_handle& h,
                                 netsim::flow_id_t key, double now,
                                 std::uint64_t se, bool& hit);
  /// Run the standby on `input` and fold the divergence into the model's
  /// scorer.  Inside the caller's epoch guard; `active_out` is the active's
  /// freshly computed output for the same input.
  void shadow_score(worker_handle& w, core::model_key model,
                    snapshot_version* active, std::span<const fp::s64> input,
                    std::span<const fp::s64> active_out);

  /// Per-model divergence evidence; the spinlock serializes worker record()
  /// against writer check()/reset().  Over-aligned: adjacent models' locks
  /// must not false-share under concurrent shadow traffic.
  struct alignas(64) model_shadow {
    mutable spinlock mu;
    core::shadow_scorer scorer;
  };

  engine_config cfg_;
  epoch_domain epochs_;      // declared before handles_: destroyed after them
  version_reclaim reclaim_;  // ditto — shared by every handle
  /// Flight recorder; declared before handles_ because reclaim_.recorder
  /// points into it and handle teardown can still push zombies.
  std::unique_ptr<flight_recorder> recorder_;
  std::deque<snapshot_handle> handles_;  // one per model; stable references
  std::deque<model_shadow> shadows_;     // one per model
  sharded_flow_cache cache_;
  std::uint64_t lat_mask_ = 0;       ///< (1 << latency_sample_shift) - 1
  mutable std::mutex workers_mu_;
  std::deque<worker_handle> workers_;  // deque: stable references
  metrics::atomic_counter gate_blocks_;  ///< written by the writer thread only
  metrics::gauge cache_size_;
  metrics::gauge cache_evictions_;
  metrics::gauge cache_rehashes_;
  metrics::gauge lock_acquisitions_;
  metrics::gauge lock_contended_;
  metrics::gauge lock_per_route_;
  metrics::gauge lock_contended_ratio_;
  metrics::gauge read_retries_;
  metrics::gauge read_fallbacks_;
  metrics::gauge l1_hit_rate_;
  metrics::gauge flip_contended_;
  metrics::gauge live_versions_gauge_;
  metrics::gauge retired_versions_gauge_;
  metrics::gauge shadow_samples_;
  metrics::gauge shadow_mean_divergence_;
  metrics::gauge gate_blocks_gauge_;
};

}  // namespace lf::rt
