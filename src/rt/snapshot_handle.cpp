#include "rt/snapshot_handle.hpp"

#include <utility>

namespace lf::rt {

snapshot_handle::snapshot_handle(epoch_domain& epochs)
    : epochs_{epochs}, rec_{owned_} {}

snapshot_handle::snapshot_handle(epoch_domain& epochs, version_reclaim& reclaim)
    : epochs_{epochs}, rec_{reclaim} {}

snapshot_handle::~snapshot_handle() {
  // Contract: readers are stopped and all flow pins are released, so the
  // only remaining pins are the handle's own ownership pins.
  {
    std::lock_guard<std::mutex> pl{probation_mu_};
    if (held_ != nullptr) retire_held_locked();
  }
  shadow_.store(nullptr, std::memory_order_release);
  if (standby_ != nullptr) {
    unpin(std::exchange(standby_, nullptr));
  }
  if (snapshot_version* v = active_.exchange(nullptr,
                                             std::memory_order_acq_rel)) {
    v->demoted.store(true, std::memory_order_seq_cst);
    unpin(v);
  }
  maintain();
  epochs_.synchronize();
}

std::uint64_t snapshot_handle::install_standby(codegen::snapshot snap) {
  // A live version may stay pinned for as long as its flows last, and ~100
  // can be live at once: keep each one's program, not its C text.
  std::string{}.swap(snap.c_source);  // frees the text, not just empties it
  auto* v = new snapshot_version{next_gen_++, std::move(snap)};
  rec_.live.fetch_add(1, std::memory_order_acq_rel);
  if (standby_ != nullptr) {
    // Replaced before ever activating: demote the orphan standby directly.
    // Publish the replacement shadow first so a concurrent shadow read
    // lands on the new candidate or the (epoch-protected) old one, never
    // on a torn slot.
    shadow_.store(v, std::memory_order_release);
    snapshot_version* old = std::exchange(standby_, nullptr);
    old->demoted.store(true, std::memory_order_seq_cst);
    unpin(old);
  } else {
    shadow_.store(v, std::memory_order_release);
  }
  standby_ = v;
  installs_.inc();
  return v->gen;
}

bool snapshot_handle::switch_active() {
  if (standby_ == nullptr) {
    // Explicit guard: flipping an empty standby would publish a null active
    // and lose the running snapshot.  No-op plus a counter the caller can
    // alarm on.
    noops_.inc();
    return false;
  }
  snapshot_version* incoming = std::exchange(standby_, nullptr);
  // The candidate is being promoted: stop shadow-comparing against it.  A
  // reader mid-guard may still compare one route against it — comparing the
  // new active with itself yields divergence 0, which is harmless.
  shadow_.store(nullptr, std::memory_order_release);
  // With probation on, the whole flip tail serializes against a concurrent
  // sampler-thread rollback(); without it the mutex is never touched and
  // the historical single-writer path is unchanged.
  std::unique_lock<std::mutex> plock;
  if (probation_enabled_) plock = std::unique_lock<std::mutex>{probation_mu_};
  snapshot_version* outgoing = nullptr;
  {
    // The paper's "3 lines of code" critical section: one pointer exchange.
    spin_guard g{flip_lock_};
    outgoing = active_.exchange(incoming, std::memory_order_seq_cst);
  }
  switches_.inc();
  // L1 invalidation: any worker-cached flow→version binding may now differ
  // from what a fresh shard lookup would pin (new flows bind to `incoming`),
  // so every L1 entry stamped before this bump must fall back to the shard.
  rec_.switch_epoch.fetch_add(1, std::memory_order_seq_cst);
  if (outgoing != nullptr) {
    if (probation_enabled_) {
      // Probation hold: keep the ownership pin and skip the demote — the
      // outgoing version stays re-promotable until the hold closes.  A
      // still-open hold from an earlier switch is superseded: close it as
      // its clean expiry would have.
      if (held_ != nullptr) retire_held_locked();
      held_ = outgoing;
      held_promoted_gen_ = incoming->gen;
      held_age_ = 0;
    } else {
      // Order matters: readers re-check demoted *after* pinning; publishing
      // demoted before the ownership-pin drop is what makes their check
      // conclusive (see pin_active).
      outgoing->demoted.store(true, std::memory_order_seq_cst);
      unpin(outgoing);
    }
  }
  return true;
}

bool snapshot_handle::rollback() {
  std::lock_guard<std::mutex> pl{probation_mu_};
  if (held_ == nullptr) {
    rollback_noops_.inc();
    return false;
  }
  snapshot_version* prev = std::exchange(held_, nullptr);
  held_promoted_gen_ = 0;
  held_age_ = 0;
  // A standby installed after the suspect switch was shadow-scored against
  // the regressed active; pause scoring until the next install re-arms it.
  shadow_.store(nullptr, std::memory_order_release);
  // Same critical section as the forward flip.  `prev` still carries its
  // ownership pin and was never demoted, so the reader protocol needs no
  // resurrection: a pin_active() that loads it post-exchange passes the
  // demoted re-check exactly as it would for a fresh promotion.
  snapshot_version* regressed = nullptr;
  {
    spin_guard g{flip_lock_};
    regressed = active_.exchange(prev, std::memory_order_seq_cst);
  }
  rollbacks_.inc();
  rec_.switch_epoch.fetch_add(1, std::memory_order_seq_cst);
  if (regressed != nullptr) {
    regressed->demoted.store(true, std::memory_order_seq_cst);
    unpin(regressed);
  }
  return true;
}

bool snapshot_handle::close_probation() {
  std::lock_guard<std::mutex> pl{probation_mu_};
  if (held_ == nullptr) return false;
  retire_held_locked();
  return true;
}

bool snapshot_handle::probation_tick(std::uint64_t max_windows) {
  std::lock_guard<std::mutex> pl{probation_mu_};
  if (held_ == nullptr) return false;
  if (++held_age_ < max_windows) return false;
  retire_held_locked();
  return true;
}

snapshot_handle::probation_status snapshot_handle::probation() const {
  std::lock_guard<std::mutex> pl{probation_mu_};
  probation_status s;
  if (held_ != nullptr) {
    s.open = true;
    s.held_gen = held_->gen;
    s.promoted_gen = held_promoted_gen_;
    s.age_windows = held_age_;
  }
  return s;
}

void snapshot_handle::retire_held_locked() noexcept {
  snapshot_version* v = std::exchange(held_, nullptr);
  held_promoted_gen_ = 0;
  held_age_ = 0;
  v->demoted.store(true, std::memory_order_seq_cst);
  unpin(v);
  probation_retires_.inc();
}

snapshot_version* snapshot_handle::pin_active() noexcept {
  for (;;) {
    snapshot_version* v = active_.load(std::memory_order_seq_cst);
    if (v == nullptr) return nullptr;
    v->pins.fetch_add(1, std::memory_order_seq_cst);
    if (!v->demoted.load(std::memory_order_seq_cst)) {
      // seq_cst: demoted was still false after our pin, so the writer's
      // ownership-pin drop (which follows its demoted store) had not
      // happened — the count never reached zero and this pin holds.
      return v;
    }
    // A switch raced past us between the load and the pin; the surrounding
    // epoch guard keeps `v` allocated, so the transient pin/unpin on a
    // possibly-zombie version is memory-safe.
    unpin(v);
  }
}

std::uint64_t snapshot_handle::peek_gen() const noexcept {
  const snapshot_version* v = active_.load(std::memory_order_seq_cst);
  return v ? v->gen : 0;
}

void snapshot_handle::unpin(snapshot_version* v) noexcept {
  if (v->pins.fetch_sub(1, std::memory_order_seq_cst) != 1) return;
  // We dropped the last pin.  Only a demoted version can reach zero (the
  // ownership pin outlives active/standby tenure), and only one dropper
  // may queue it for retirement.
  if (!v->retire_pushed.exchange(true, std::memory_order_seq_cst)) {
    push_zombie(v);
  }
}

void snapshot_handle::push_zombie(snapshot_version* v) noexcept {
  // Bump-before-push: a worker that still reads the pre-bump switch epoch
  // from inside its guard precedes this store in the seq_cst order, hence
  // also precedes the retire()'s epoch advance — the grace period cannot
  // elapse under that worker, so its L1 pointer stays dereferenceable for
  // the remainder of its guard.  Workers that see the bump reject the entry.
  rec_.switch_epoch.fetch_add(1, std::memory_order_seq_cst);
  if (rec_.recorder != nullptr) {
    // This runs on whatever thread dropped the last pin — worker or writer
    // — which is exactly why the recorder ring tolerates multi-producer
    // emission.  b = the post-bump switch epoch, so a dump shows which L1
    // invalidation the push rode on.
    emit_now(*rec_.recorder, trace::event_type::zombie_push, v->gen,
             rec_.switch_epoch.load(std::memory_order_relaxed));
  }
  if (rec_.on_drain) rec_.on_drain(*v);
  std::lock_guard<std::mutex> g{rec_.zombies_mu};
  rec_.zombies.push_back(v);
}

std::size_t snapshot_handle::maintain() {
  std::vector<snapshot_version*> batch;
  {
    std::lock_guard<std::mutex> g{rec_.zombies_mu};
    batch.swap(rec_.zombies);
  }
  for (snapshot_version* v : batch) {
    // Capture the reclaim domain, not `this`: with a shared domain the
    // deferred delete may run from another handle's maintain() after this
    // handle is gone.
    version_reclaim* rec = &rec_;
    epochs_.retire([rec, v]() {
      delete v;
      rec->retired.fetch_add(1, std::memory_order_acq_rel);
      rec->live.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
  const std::size_t freed = epochs_.try_reclaim();
  if (freed != 0 && rec_.recorder != nullptr) {
    emit_now(*rec_.recorder, trace::event_type::version_reclaim, freed,
             rec_.retired.load(std::memory_order_relaxed));
  }
  return freed;
}

void snapshot_handle::register_metrics(metrics::registry& reg,
                                       const std::string& prefix) {
  reg.register_counter(prefix + ".installs", installs_);
  reg.register_counter(prefix + ".switches", switches_);
  reg.register_counter(prefix + ".switch_noops", noops_);
  if (probation_enabled_) {
    // Registered only when probation is in play so the single-model
    // clean-run Prometheus text stays byte-identical.
    reg.register_counter(prefix + ".rollbacks", rollbacks_);
    reg.register_counter(prefix + ".rollback_noops", rollback_noops_);
    reg.register_counter(prefix + ".probation_retires", probation_retires_);
  }
}

}  // namespace lf::rt
