#include "rt/engine.hpp"

#include <stdexcept>

namespace lf::rt {
namespace {

/// Flow-cache buckets the incremental idle sweep visits on every miss.
constexpr std::size_t k_evict_slots_per_route = 2;

/// A worker records one route summary in 2^k_blackbox_route_shift.
constexpr std::uint64_t k_bb_route_mask =
    (std::uint64_t{1} << k_blackbox_route_shift) - 1;

/// `cfg`, once it is known to fit the composite key: a model key at or past
/// k_max_models would share model 0's flow-cache entries.
const engine_config& checked(const engine_config& cfg) {
  if (cfg.models > core::k_max_models) {
    throw std::invalid_argument{
        "datapath_engine: more models than the composite key can tell apart"};
  }
  return cfg;
}

}  // namespace

void worker_handle::register_metrics(metrics::registry& reg,
                                     const std::string& prefix) {
  reg.register_counter(prefix + ".routes", routes_);
  reg.register_counter(prefix + ".l1_hits", l1_hits_);
  reg.register_counter(prefix + ".hits", hits_);
  reg.register_counter(prefix + ".misses", misses_);
  reg.register_counter(prefix + ".inferences", infers_);
  reg.register_counter(prefix + ".shadow_inferences", shadow_infers_);
  reg.register_counter(prefix + ".fins", fins_);
  reg.register_counter(prefix + ".batches", batches_);
}

std::size_t datapath_engine::resolved_shards(
    const engine_config& cfg) noexcept {
  const std::size_t workers = cfg.max_workers == 0 ? 1 : cfg.max_workers;
  return cfg.shards == 0 ? round_up_pow2(2 * workers)
                         : round_up_pow2(cfg.shards);
}

datapath_engine::datapath_engine(engine_config cfg)
    : cfg_{checked(cfg)},
      epochs_{cfg.max_workers == 0 ? 1 : cfg.max_workers},
      cache_{resolved_shards(cfg), cfg.idle_timeout, epochs_} {
  // Reflect the resolved policy back into config() so callers (and the
  // bench report) see the shard count actually in effect.
  cfg_.shards = cache_.shard_count();
  if (cfg_.l1_slots != 0) cfg_.l1_slots = round_up_pow2(cfg_.l1_slots);
  if (cfg_.models == 0) cfg_.models = 1;
  if (cfg_.telemetry.latency) {
    lat_mask_ =
        (std::uint64_t{1} << cfg_.telemetry.latency_sample_shift) - 1;
  }
  if (cfg_.telemetry.blackbox_events != 0) {
    recorder_ = std::make_unique<flight_recorder>(
        cfg_.telemetry, cfg_.max_workers == 0 ? 1 : cfg_.max_workers);
    // Single-threaded here (before any worker exists), which satisfies the
    // version_reclaim contract of setting the recorder before concurrency.
    reclaim_.recorder = &recorder_->control();
  }
  for (std::size_t m = 0; m < cfg_.models; ++m) {
    handles_.emplace_back(epochs_, reclaim_);
    shadows_.emplace_back();
  }
  if (cfg_.probation_windows != 0) {
    for (snapshot_handle& h : handles_) h.set_probation(true);
  }
}

datapath_engine::~datapath_engine() {
  // Contract: worker threads are joined.  Release every flow pin so the
  // handle teardown (which runs next, then the epoch domain) can retire all
  // versions.  Any handle of the shared reclaim domain can do the unpin
  // accounting, and one maintain() drains the shared zombie list.
  cache_.clear(handles_[0]);
  handles_[0].maintain();
}

std::uint64_t datapath_engine::install(core::model_key model,
                                       codegen::snapshot snap) {
  snapshot_handle& h = handles_[model];
  const std::uint64_t gen = h.install_standby(std::move(snap));
  if (recorder_ != nullptr) {
    emit_now(recorder_->control(), trace::event_type::snapshot_install, model,
             gen);
  }
  {
    // A fresh candidate invalidates whatever was measured for the old one.
    // Binding the new generation makes workers' gen-tagged records for the
    // replaced candidate drop instead of gating this one (a racing worker
    // can reach the scorer after this reset with a divergence it measured
    // against the previous standby).
    spin_guard g{shadows_[model].mu};
    shadows_[model].scorer.reset();
    shadows_[model].scorer.bind(gen);
  }
  // Opportunistic reclamation keeps the zombie list short without a
  // dedicated maintenance thread.
  h.maintain();
  return gen;
}

bool datapath_engine::switch_active(core::model_key model) {
  snapshot_handle& h = handles_[model];
  const bool flipped = h.switch_active();
  if (flipped) {
    if (recorder_ != nullptr) {
      emit_now(recorder_->control(), trace::event_type::snapshot_switch,
               model, 0);
    }
    spin_guard g{shadows_[model].mu};
    shadows_[model].scorer.reset();
  }
  h.maintain();
  return flipped;
}

switch_outcome datapath_engine::try_switch(core::model_key model) {
  snapshot_handle& h = handles_[model];
  switch_outcome out;
  if (!h.has_standby()) {
    h.switch_active();  // counts the no-op where it is always counted
    out.status = switch_outcome::result::no_standby;
    return out;
  }
  {
    spin_guard g{shadows_[model].mu};
    out.verdict = shadows_[model].scorer.check(cfg_.shadow);
  }
  // Jurisdiction: gate only a replacement.  The bootstrap switch (no
  // incumbent) must ship regardless — there is nothing to diverge from.
  const bool gated = cfg_.shadow.active() && h.has_active();
  if (recorder_ != nullptr && gated) {
    emit_now(
        recorder_->control(), trace::event_type::gate_verdict,
        (static_cast<std::uint64_t>(model) << 1) |
            (out.verdict.admit ? 1u : 0u),
        static_cast<std::uint64_t>(out.verdict.mean_divergence * 1e9));
  }
  if (gated && !out.verdict.admit) {
    gate_blocks_.inc();
    out.status = switch_outcome::result::gate_blocked;
    return out;
  }
  h.switch_active();
  if (recorder_ != nullptr) {
    emit_now(recorder_->control(), trace::event_type::snapshot_switch, model,
             0);
  }
  {
    spin_guard g{shadows_[model].mu};
    shadows_[model].scorer.reset();
  }
  h.maintain();
  out.status = switch_outcome::result::flipped;
  return out;
}

std::size_t datapath_engine::maintain() { return handles_[0].maintain(); }

bool datapath_engine::try_rollback(core::model_key model) {
  snapshot_handle& h = handles_[model];
  // Captured before the flip for the rollback event's payload; the policy
  // callers are single-threaded per model, so the status cannot change
  // between the read and the rollback.
  const snapshot_handle::probation_status st = h.probation();
  const bool rolled = h.rollback();
  if (rolled) {
    if (recorder_ != nullptr) {
      emit_now(recorder_->control(), trace::event_type::snapshot_rollback,
               (static_cast<std::uint64_t>(model) << 32) |
                   (st.held_gen & 0xffffffffULL),
               st.promoted_gen);
    }
    // Whatever divergence a standby accumulated was measured against the
    // regressed active; the next install starts the evidence over.
    spin_guard g{shadows_[model].mu};
    shadows_[model].scorer.reset();
  }
  h.maintain();
  return rolled;
}

std::size_t datapath_engine::probation_tick() {
  if (cfg_.probation_windows == 0) return 0;
  std::size_t closed = 0;
  for (snapshot_handle& h : handles_) {
    if (h.probation_tick(cfg_.probation_windows)) ++closed;
  }
  if (closed != 0) handles_[0].maintain();
  return closed;
}

std::size_t datapath_engine::close_probation() {
  std::size_t closed = 0;
  for (snapshot_handle& h : handles_) {
    if (h.close_probation()) ++closed;
  }
  if (closed != 0) handles_[0].maintain();
  return closed;
}

worker_handle& datapath_engine::register_worker() {
  std::lock_guard<std::mutex> g{workers_mu_};
  worker_handle& w = workers_.emplace_back();
  w.slot_ = epochs_.register_reader();
  if (cfg_.l1_slots != 0) {
    w.l1_.resize(cfg_.l1_slots);
    unsigned bits = 0;
    while ((std::size_t{1} << bits) < cfg_.l1_slots) ++bits;
    if (bits == 0) {
      w.l1_mul_ = 0;
      w.l1_shift_ = 63;
    } else {
      w.l1_shift_ = 64 - bits;
    }
  }
  if (recorder_ != nullptr && w.slot_ < recorder_->worker_rings()) {
    w.bb_ = &recorder_->worker(w.slot_);
  }
  return w;
}

snapshot_version* datapath_engine::resolve_flow(worker_handle& w,
                                               snapshot_handle& h,
                                               netsim::flow_id_t key,
                                               double now, std::uint64_t se,
                                               bool& hit) {
  if (!w.l1_.empty()) {
    worker_handle::l1_entry& e = w.l1_slot(key);
    if (e.epoch == se && e.key == key &&
        now - e.l2_at < cache_.refresh_interval()) {
      // L1 hit: the unchanged switch epoch proves the binding is current
      // and the pointer dereferenceable (snapshot_handle.hpp).  An entry
      // that last reached the L2 a refresh interval ago falls through to
      // the L2 probe, which keeps the flow's idle stamp moving.
      hit = true;
      w.l1_hits_.inc();
      return e.ver;
    }
  }
  snapshot_version* v = cache_.lookup(key, now);
  if (v != nullptr) {
    hit = true;
    w.hits_.inc();
  } else {
    hit = false;
    w.misses_.inc();
    v = h.pin_active();
    if (v == nullptr) return nullptr;  // nothing deployed yet for this model
    v = cache_.insert(key, v, now, k_evict_slots_per_route, h);
  }
  if (!w.l1_.empty()) {
    // Stamp with the epoch loaded *before* the probe: if a flip or
    // retirement raced this resolve, the entry is born stale and the next
    // route re-validates against the shard instead of trusting it.
    w.l1_slot(key) = worker_handle::l1_entry{key, v, se, now};
  }
  return v;
}

void datapath_engine::shadow_score(worker_handle& w, core::model_key model,
                                   snapshot_version* active,
                                   std::span<const fp::s64> input,
                                   std::span<const fp::s64> active_out) {
  snapshot_version* sh = handles_[model].peek_shadow();
  // `sh` is safe to dereference (not to keep): we are inside the caller's
  // epoch guard and standby retirement goes through the epoch domain.
  // Comparing against the just-promoted active (flip race) is skipped.
  if (sh == nullptr || sh == active) return;
  // Capture the candidate's generation BEFORE inferring: install_standby can
  // replace the candidate while we compute, and the tag is what keeps this
  // divergence from being attributed to the replacement (the scorer drops
  // gen-mismatched records).
  const std::uint64_t candidate_gen = sh->gen;
  const quant::quantized_mlp& prog = sh->snap.program;
  if (input.size() != prog.input_size()) return;  // shape drifted
  w.shadow_out_.resize(prog.output_size());
  prog.infer_into(input, w.shadow_out_, w.scratch_);
  w.shadow_infers_.inc();
  const double d = core::shadow_divergence(
      active_out, active->snap.program.io_scale(), w.shadow_out_,
      prog.io_scale());
  spin_guard g{shadows_[model].mu};
  shadows_[model].scorer.record(d, candidate_gen);
}

route_result datapath_engine::route(worker_handle& w, core::model_key model,
                                    netsim::flow_id_t flow, double now,
                                    std::span<const fp::s64> input,
                                    std::span<fp::s64> out) {
  route_result r;
  w.routes_.inc();
  // Telemetry off costs one predictable branch here (short-circuit before
  // the tick) plus the null bb_ check at the bottom; sampled-off routes pay
  // the tick but no clock read.
  const bool timed =
      cfg_.telemetry.latency && ((w.lat_tick_++ & lat_mask_) == 0);
  const std::uint64_t t0 = timed ? metrics::wall_ns() : 0;
  const netsim::flow_id_t key = core::composite_flow_key(model, flow);
  snapshot_handle& h = handles_[model];
  {
    // The epoch guard spans the whole route+infer: any version pointer we
    // hold — L1-cached, shard-cached pin or freshly pinned active — cannot
    // be freed before we exit, even if a racing FIN/switch drops its last
    // pin meanwhile.  The shadow peek rides the same guard.  Closed before
    // the latency stamp so the guard's own exit cost is inside the sample
    // (it is part of the route) but the telemetry writes are not extending
    // the grace period.
    epoch_domain::guard g{epochs_, w.slot_};
    const std::uint64_t se = h.switch_epoch();
    snapshot_version* v = resolve_flow(w, h, key, now, se, r.hit);
    if (v != nullptr) {
      r.gen = v->gen;
      const quant::quantized_mlp& prog = v->snap.program;
      if (input.size() == prog.input_size() &&
          out.size() == prog.output_size()) {
        prog.infer_into(input, out, w.scratch_);
        w.infers_.inc();
        r.served = true;
        // Deterministic sampled slice: same (model, flow) => same decision
        // on every run and every worker.
        if (cfg_.shadow.active() &&
            core::shadow_scorer::sampled(cfg_.shadow, model, flow)) {
          shadow_score(w, model, v, input, out);
        }
      }
    }
  }
  if (timed) w.lat_.record(metrics::wall_ns() - t0);
  if (w.bb_ != nullptr && (w.bb_tick_++ & k_bb_route_mask) == 0) [[unlikely]] {
    emit_now(*w.bb_, trace::event_type::route_summary, key, r.gen);
  }
  return r;
}

std::size_t datapath_engine::route_batch(
    worker_handle& w, core::model_key model,
    std::span<const netsim::flow_id_t> flows, double now,
    std::span<const fp::s64> inputs, std::span<fp::s64> outs,
    std::span<route_result> results) {
  const std::size_t n = flows.size();
  if (n == 0 || results.size() < n) return 0;
  w.routes_.inc(n);
  w.batches_.inc();
  // One timing decision per batch; the per-flow mean is recorded n times so
  // batched and scalar routes weigh equally in the merged histogram.
  const bool timed =
      cfg_.telemetry.latency && ((w.lat_tick_++ & lat_mask_) == 0);
  const std::uint64_t t0 = timed ? metrics::wall_ns() : 0;
  if (w.batch_vers_.size() < n) w.batch_vers_.resize(n);
  snapshot_handle& h = handles_[model];
  // One guard + one switch-epoch load amortized over the whole batch.
  epoch_domain::guard g{epochs_, w.slot_};
  const std::uint64_t se = h.switch_epoch();
  for (std::size_t i = 0; i < n; ++i) {
    results[i] = route_result{};
    const netsim::flow_id_t key = core::composite_flow_key(model, flows[i]);
    snapshot_version* v = resolve_flow(w, h, key, now, se, results[i].hit);
    w.batch_vers_[i] = v;
    if (v != nullptr) results[i].gen = v->gen;
  }
  // Inference over maximal runs of same-version packets: one batched weight
  // pass per run.  Steady state is one run (everything on the active gen);
  // during a switch drain it degrades gracefully to a few runs.
  std::size_t served = 0;
  std::size_t i = 0;
  while (i < n) {
    snapshot_version* const v = w.batch_vers_[i];
    std::size_t j = i + 1;
    while (j < n && w.batch_vers_[j] == v) ++j;
    if (v != nullptr) {
      const quant::quantized_mlp& prog = v->snap.program;
      const std::size_t in_sz = prog.input_size();
      const std::size_t out_sz = prog.output_size();
      if (inputs.size() == n * in_sz && outs.size() == n * out_sz) {
        const std::size_t k = j - i;
        prog.infer_batch_into(inputs.subspan(i * in_sz, k * in_sz), k,
                              outs.subspan(i * out_sz, k * out_sz),
                              w.scratch_);
        w.infers_.inc(k);
        served += k;
        for (std::size_t s = i; s < j; ++s) results[s].served = true;
      }
    }
    i = j;
  }
  if (timed) w.lat_.record((metrics::wall_ns() - t0) / n, n);
  if (w.bb_ != nullptr && (w.bb_tick_++ & k_bb_route_mask) == 0) [[unlikely]] {
    emit_now(*w.bb_, trace::event_type::batch_flush, n, served);
  }
  return served;
}

bool datapath_engine::flow_finished(worker_handle& w, core::model_key model,
                                    netsim::flow_id_t flow) {
  const netsim::flow_id_t key = core::composite_flow_key(model, flow);
  if (!w.l1_.empty()) {
    // Drop the worker's own binding first: after a FIN the next packet of
    // this flow must take a miss, never an L1 hit on the closed entry.
    worker_handle::l1_entry& e = w.l1_slot(key);
    if (e.key == key) e.epoch = 0;
  }
  const bool erased = cache_.erase(key, handles_[model]);
  if (erased) w.fins_.inc();
  return erased;
}

snapshot_version* datapath_engine::resolve(worker_handle& w,
                                          netsim::flow_id_t flow,
                                          double now) {
  w.routes_.inc();
  snapshot_handle& h = handles_[core::k_default_model];
  bool hit = false;  // the worker's hit/miss counters record it
  return resolve_flow(w, h, flow, now, h.switch_epoch(), hit);
}

std::size_t datapath_engine::expire_idle(double now) {
  return cache_.expire_idle(now, handles_[0]);
}

std::uint64_t datapath_engine::installs() const noexcept {
  std::uint64_t sum = 0;
  for (const snapshot_handle& h : handles_) sum += h.installs();
  return sum;
}

std::uint64_t datapath_engine::switches() const noexcept {
  std::uint64_t sum = 0;
  for (const snapshot_handle& h : handles_) sum += h.switches();
  return sum;
}

std::uint64_t datapath_engine::switch_noops() const noexcept {
  std::uint64_t sum = 0;
  for (const snapshot_handle& h : handles_) sum += h.switch_noops();
  return sum;
}

std::uint64_t datapath_engine::rollbacks() const noexcept {
  std::uint64_t sum = 0;
  for (const snapshot_handle& h : handles_) sum += h.rollbacks();
  return sum;
}

std::uint64_t datapath_engine::rollback_noops() const noexcept {
  std::uint64_t sum = 0;
  for (const snapshot_handle& h : handles_) sum += h.rollback_noops();
  return sum;
}

std::uint64_t datapath_engine::probation_retires() const noexcept {
  std::uint64_t sum = 0;
  for (const snapshot_handle& h : handles_) sum += h.probation_retires();
  return sum;
}

std::uint64_t datapath_engine::shadow_gen_drops() const {
  std::uint64_t sum = 0;
  for (const model_shadow& s : shadows_) {
    spin_guard g{s.mu};
    sum += s.scorer.gen_mismatch_drops();
  }
  return sum;
}

std::uint64_t datapath_engine::shadow_inferences() const {
  std::uint64_t sum = 0;
  std::lock_guard<std::mutex> g{workers_mu_};
  for (const worker_handle& w : workers_) sum += w.shadow_inferences();
  return sum;
}

core::shadow_verdict datapath_engine::shadow_evidence(
    core::model_key model) const {
  spin_guard g{shadows_[model].mu};
  return shadows_[model].scorer.check(cfg_.shadow);
}

datapath_engine::live_counters datapath_engine::counters_now() const {
  live_counters c;
  {
    std::lock_guard<std::mutex> g{workers_mu_};
    for (const worker_handle& w : workers_) {
      c.routes += w.routes();
      c.l1_hits += w.l1_hits();
      c.l2_hits += w.cache_hits();
      c.misses += w.cache_misses();
      c.inferences += w.inferences();
      c.shadow_inferences += w.shadow_inferences();
      c.fins += w.fins();
      c.batches += w.batches();
    }
  }
  const sharded_flow_cache::totals t = cache_.stats();
  c.cache_size = t.size;
  c.cache_evictions = t.evictions;
  c.lock_acquisitions = t.lock_acquisitions;
  c.lock_contended = t.lock_contended;
  c.read_retries = t.read_retries;
  c.read_fallbacks = t.read_fallbacks;
  c.installs = installs();
  c.switches = switches();
  c.switch_noops = switch_noops();
  c.gate_blocks = gate_blocks_.value();
  c.versions_live = versions_live();
  c.versions_retired = versions_retired();
  c.rollbacks = rollbacks();
  c.rollback_noops = rollback_noops();
  return c;
}

void datapath_engine::latency_snapshot_into(
    metrics::latency_snapshot& out) const {
  std::lock_guard<std::mutex> g{workers_mu_};
  for (const worker_handle& w : workers_) w.latency().snapshot_into(out);
}

void datapath_engine::record_violation(worker_handle& w, netsim::flow_id_t key,
                                       std::uint64_t expected_gen,
                                       std::uint64_t observed_gen) noexcept {
  if (recorder_ == nullptr) return;
  const std::uint64_t packed =
      (expected_gen << 32) | (observed_gen & 0xffffffffULL);
  if (w.bb_ != nullptr) {
    emit_now(*w.bb_, trace::event_type::invariant_violation, key, packed);
  }
  emit_now(recorder_->control(), trace::event_type::invariant_violation, key,
           packed);
}

void datapath_engine::record_lifecycle(trace::lifecycle_phase phase,
                                       core::model_key model,
                                       std::uint64_t version,
                                       std::uint64_t cost_ns) noexcept {
  if (recorder_ == nullptr) return;
  emit_now(recorder_->control(), trace::event_type::lifecycle_stage,
           trace::pack_lifecycle(phase, model, version), cost_ns);
}

void datapath_engine::register_metrics(metrics::registry& reg,
                                       const std::string& prefix) {
  // Model 0 keeps the historical ".snapshots" names; extra models get a
  // ".snapshots.m<k>" prefix so multi-model reports stay per-lifecycle.
  handles_[0].register_metrics(reg, prefix + ".snapshots");
  for (std::size_t m = 1; m < handles_.size(); ++m) {
    handles_[m].register_metrics(
        reg, prefix + ".snapshots.m" + std::to_string(m));
  }
  reg.register_gauge(prefix + ".cache.size", cache_size_);
  reg.register_gauge(prefix + ".cache.evictions", cache_evictions_);
  reg.register_gauge(prefix + ".cache.rehashes", cache_rehashes_);
  reg.register_gauge(prefix + ".cache.lock_acquisitions", lock_acquisitions_);
  reg.register_gauge(prefix + ".cache.lock_contended", lock_contended_);
  reg.register_gauge(prefix + ".cache.read_retries", read_retries_);
  reg.register_gauge(prefix + ".cache.read_fallbacks", read_fallbacks_);
  reg.register_gauge(prefix + ".lock.per_route", lock_per_route_);
  reg.register_gauge(prefix + ".lock.contended_ratio", lock_contended_ratio_);
  reg.register_gauge(prefix + ".l1.hit_rate", l1_hit_rate_);
  reg.register_gauge(prefix + ".flip_lock.contended", flip_contended_);
  reg.register_gauge(prefix + ".versions.live", live_versions_gauge_);
  reg.register_gauge(prefix + ".versions.retired", retired_versions_gauge_);
  reg.register_counter(prefix + ".shadow.gate_blocks", gate_blocks_);
  reg.register_gauge(prefix + ".shadow.samples", shadow_samples_);
  reg.register_gauge(prefix + ".shadow.mean_divergence",
                     shadow_mean_divergence_);
}

void datapath_engine::publish_stats() {
  const sharded_flow_cache::totals t = cache_.stats();
  cache_size_.set(static_cast<double>(t.size));
  cache_evictions_.set(static_cast<double>(t.evictions));
  cache_rehashes_.set(static_cast<double>(t.rehashes));
  lock_acquisitions_.set(static_cast<double>(t.lock_acquisitions));
  lock_contended_.set(static_cast<double>(t.lock_contended));
  read_retries_.set(static_cast<double>(t.read_retries));
  read_fallbacks_.set(static_cast<double>(t.read_fallbacks));
  // Derived pressure rates for flight reports and the scaling bench: locks
  // taken per route and the fraction of acquisitions that actually spun.
  std::uint64_t total_routes = 0;
  std::uint64_t total_l1_hits = 0;
  {
    std::lock_guard<std::mutex> g{workers_mu_};
    for (const worker_handle& w : workers_) {
      total_routes += w.routes();
      total_l1_hits += w.l1_hits();
    }
  }
  lock_per_route_.set(total_routes == 0
                          ? 0.0
                          : static_cast<double>(t.lock_acquisitions) /
                                static_cast<double>(total_routes));
  lock_contended_ratio_.set(t.lock_acquisitions == 0
                                ? 0.0
                                : static_cast<double>(t.lock_contended) /
                                      static_cast<double>(t.lock_acquisitions));
  l1_hit_rate_.set(total_routes == 0
                       ? 0.0
                       : static_cast<double>(total_l1_hits) /
                             static_cast<double>(total_routes));
  std::uint64_t flip_contended = 0;
  for (const snapshot_handle& h : handles_) {
    flip_contended += h.flip_lock().contended_acquisitions();
  }
  flip_contended_.set(static_cast<double>(flip_contended));
  live_versions_gauge_.set(static_cast<double>(versions_live()));
  retired_versions_gauge_.set(static_cast<double>(versions_retired()));
  std::uint64_t samples = 0;
  double weighted_mean = 0.0;
  for (std::size_t m = 0; m < shadows_.size(); ++m) {
    const core::shadow_verdict v = shadow_evidence(
        static_cast<core::model_key>(m));
    samples += v.samples;
    weighted_mean += v.mean_divergence * static_cast<double>(v.samples);
  }
  shadow_samples_.set(static_cast<double>(samples));
  shadow_mean_divergence_.set(
      samples == 0 ? 0.0 : weighted_mean / static_cast<double>(samples));
}

}  // namespace lf::rt
