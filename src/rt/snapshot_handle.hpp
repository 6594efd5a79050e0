// Active/standby snapshot handle for real threads (§3.4, made concurrent).
//
// The paper's active/standby slots, for every caller: the rt engine's
// workers and, through core::liteflow_core, the simulated stack.  The flip
// is a std::atomic pointer exchange under an rt::spinlock held for a few
// instructions, standby installation takes no lock at all (the datapath
// never looks at the standby slot), and the demoted snapshot is freed only
// after (a) its flow-cache pin count drains to zero and (b) an epoch grace
// period proves no in-flight reader still holds the raw pointer.
//
// Lifecycle of one snapshot_version:
//
//   install_standby()   heap-allocates the version, pins it once (the
//                       handle's ownership pin), publishes nothing.
//   switch_active()     exchanges the active pointer (spinlock'd flip),
//                       marks the old active demoted, drops its ownership
//                       pin.  No waiting, no reader stall.
//   pin_active()        reader side, inside an epoch guard: load active,
//                       pins.fetch_add, re-check demoted.  Seeing
//                       demoted == false proves (seq_cst) the writer has
//                       not yet dropped the ownership pin, so the count
//                       can never have touched zero — the pin is safe and
//                       the version cannot be retired while it is held.
//                       Seeing demoted == true means the flip raced past
//                       us: unpin and retry with the new active.
//   unpin()             whoever drops the count to zero on a demoted
//                       version pushes it to the zombie list exactly once
//                       (retire_pushed_ gate).  Readers that transiently
//                       resurrect a zombie's count (pin then observe
//                       demoted) are safe: they are inside an epoch guard,
//                       so the grace period cannot elapse under them.
//   maintain()          writer side: moves zombies into the epoch domain's
//                       retire list and reclaims whatever has drained.
//
// Probation (gate-aware rollback, opt-in via set_probation): with probation
// enabled, switch_active() does NOT demote the outgoing version.  It keeps
// its ownership pin and parks in a probation hold — still un-demoted, so
// readers with cached pins keep serving it and a re-promotion needs no
// resurrection.  The hold ends one of three ways:
//   rollback()          re-promotes the held version through the same
//                       one-pointer-exchange critical section as the forward
//                       flip (flip_lock_, switch-epoch bump => L1
//                       invalidation, shadow clear) and demotes the
//                       regressed incumbent, which then retires through the
//                       ordinary zombie path.
//   probation_tick()    the probation clock (stats-sampler windows) expires:
//                       the held version is demoted + released exactly as a
//                       probation-less switch would have done at flip time.
//   switch_active()     a newer switch supersedes the open hold: the old
//                       held version closes cleanly first.
// Because the held version was never demoted, rollback() re-uses the
// unmodified reader protocol: after the exchange, pin_active() loads the
// re-promoted pointer and its demoted re-check still proves the ownership
// pin is live (it never left).  The regressed version's demote + release
// happen after the exchange in seq_cst order, so a reader that pinned it
// pre-exchange drains through the zombie path and no reader that observes
// the new active can pin the regressed version again.  All probation state
// transitions (and the flip they wrap) serialize under probation_mu_, so a
// sampler-thread rollback() cannot interleave with a writer-thread switch.
//
// The handle also carries the **switch epoch**: a monotonic counter bumped
// on every active flip and on every zombie push (the moment a version's last
// pin drains).  Per-worker L1 route caches stamp their entries with the
// counter value read *inside* an epoch guard and reject any entry whose
// stamp is stale.  The resulting guarantee: while a worker observes an
// unchanged switch epoch from within a guard, (a) no version it cached has
// been pushed toward retirement — the pointer is dereferenceable — and (b)
// no resident flow→version binding has changed generation, so serving the
// cached version preserves §3.4 flow consistency without touching the
// sharded cache at all.  (Zombie pushes strictly precede their
// epoch_domain::retire() call, so a reader that read a stale-free counter
// value inside its guard is, by the seq_cst total order, also visible to
// the grace-period scan that would enable the free.)
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "codegen/snapshot.hpp"
#include "rt/epoch.hpp"
#include "rt/flight_recorder.hpp"
#include "rt/spinlock.hpp"
#include "util/metrics.hpp"

namespace lf::rt {

/// One installed model generation.  Immutable payload after construction;
/// the atomics carry the concurrent lifecycle.
struct snapshot_version {
  snapshot_version(std::uint64_t g, codegen::snapshot s)
      : gen{g}, snap{std::move(s)} {}

  std::uint64_t gen;              ///< monotonic install generation
  /// The integer program, name and version (const after build).  c_source
  /// is empty: the datapath runs the program, never its C text, so
  /// install_standby drops the text before it publishes the version.
  codegen::snapshot snap;
  std::atomic<std::uint64_t> pins{1};  ///< starts with the ownership pin
  std::atomic<bool> demoted{false};
  std::atomic<bool> retire_pushed{false};
};

/// Version-reclamation state shareable by several handles.  A multi-model
/// engine gives each logical model its own snapshot_handle but ONE of these,
/// so the whole engine has one switch-epoch counter (one L1 stamp to check
/// per route regardless of model count), one zombie list, and one live/
/// retired account — and a version pinned through one model's cache entry
/// can be unpinned through any handle of the domain.  A handle constructed
/// without one owns a private instance (single-model behavior unchanged).
struct version_reclaim {
  std::mutex zombies_mu;
  std::vector<snapshot_version*> zombies;
  /// Monotonic L1-invalidation counter (see snapshot_handle::switch_epoch).
  std::atomic<std::uint64_t> switch_epoch{1};
  std::atomic<std::uint64_t> retired{0};
  std::atomic<std::uint64_t> live{0};
  /// Optional flight-recorder ring for lifecycle events (zombie pushes —
  /// which happen on arbitrary reader threads — and reclaim batches).  Set
  /// once before any concurrency starts; nullptr keeps the paths silent.
  trace::ring* recorder = nullptr;
  /// Optional drain observer: called with each version whose last pin
  /// dropped, on the thread that dropped it, before the version is queued
  /// for reclamation.  Set once before any concurrency starts.
  std::function<void(const snapshot_version&)> on_drain;
};

class snapshot_handle {
 public:
  /// The handle retires garbage through `epochs`; every reader that calls
  /// pin_active()/peek_gen() must be inside a guard on the same domain.
  explicit snapshot_handle(epoch_domain& epochs);

  /// Share `reclaim` with the other handles of one engine (see
  /// version_reclaim).  `reclaim` must outlive the handle.
  snapshot_handle(epoch_domain& epochs, version_reclaim& reclaim);

  snapshot_handle(const snapshot_handle&) = delete;
  snapshot_handle& operator=(const snapshot_handle&) = delete;

  /// Teardown: requires all readers stopped and all cache pins released.
  ~snapshot_handle();

  // ------------------------------------------------------------- writer --

  /// Install `snap` as the standby snapshot, without its C text (see
  /// snapshot_version::snap).  Lock-free with respect to the read path
  /// (readers never inspect the standby slot).  Replacing an unswitched
  /// standby retires the old one.  Returns the new generation.
  std::uint64_t install_standby(codegen::snapshot snap);

  /// Flip active/standby: one pointer exchange under the flip spinlock
  /// (held nanoseconds — the §3.4 claim this engine exists to validate).
  /// With no standby installed this is an explicit no-op that bumps
  /// switch_noops() and returns false.
  bool switch_active();

  /// Drain zombie versions into the epoch retire list and reclaim whatever
  /// has passed its grace period.  Returns versions actually freed.  Call
  /// from the writer loop (or any maintenance thread).
  std::size_t maintain();

  // ---------------------------------------------------------- probation --

  /// Enable/disable probation holds (see the file comment).  Must be set
  /// before any switch traffic; default off keeps the historical
  /// demote-at-flip behavior (and its tests) bit-identical.
  void set_probation(bool on) noexcept { probation_enabled_ = on; }
  bool probation_enabled() const noexcept { return probation_enabled_; }

  /// Re-promote the probation-held previous active (any thread; the
  /// rollback policy calls this from the stats-sampler thread).  Returns
  /// false — and counts a rollback no-op — when no hold is open (probation
  /// expired, already rolled back, or probation disabled).
  bool rollback();

  /// Close an open hold cleanly: demote + release the held version exactly
  /// as a probation-less switch would have.  Returns false when no hold is
  /// open.
  bool close_probation();

  /// Advance the probation clock one stats-sampler window; closes the hold
  /// (clean retire) once it has aged `max_windows` ticks.  Returns true if
  /// this tick closed the hold.
  bool probation_tick(std::uint64_t max_windows);

  /// Snapshot of the open hold (all-zero when none).  `promoted_gen` is the
  /// generation whose switch opened the hold — the suspect the watchdog's
  /// post-switch classifier names in its incident record.
  struct probation_status {
    bool open = false;
    std::uint64_t held_gen = 0;      ///< rollback target (previous active)
    std::uint64_t promoted_gen = 0;  ///< generation the suspect switch installed
    std::uint64_t age_windows = 0;   ///< probation_tick()s since the hold opened
  };
  probation_status probation() const;

  std::uint64_t rollbacks() const noexcept { return rollbacks_.value(); }
  std::uint64_t rollback_noops() const noexcept {
    return rollback_noops_.value();
  }
  /// Holds that closed cleanly (expiry, supersede, or teardown).
  std::uint64_t probation_retires() const noexcept {
    return probation_retires_.value();
  }

  // ------------------------------------------------------------- reader --

  /// Pin the current active version.  MUST be called inside an
  /// epoch_domain::guard.  Returns nullptr if nothing is active.  The pin
  /// keeps the version alive beyond the guard (a flow-cache entry holds it
  /// across packets); release with unpin().
  snapshot_version* pin_active() noexcept;

  /// Current active generation without pinning (telemetry / tests).  Must
  /// be called inside an epoch guard.  0 if nothing is active.
  std::uint64_t peek_gen() const noexcept;

  /// The current shadow candidate (the installed-but-unswitched standby),
  /// or nullptr.  MUST be called inside an epoch guard, and the pointer
  /// must not outlive it: the standby's ownership pin plus epoch-deferred
  /// reclamation keep the object alive for the guard's duration even if
  /// the writer concurrently switches or replaces it, but nothing keeps it
  /// alive beyond.  Shadow scoring dereferences it for one inference and
  /// lets go — it never pins, so a shadow read can never delay retirement.
  snapshot_version* peek_shadow() const noexcept {
    return shadow_.load(std::memory_order_acquire);
  }

  /// Drop one pin.  Safe from any thread; the zero-crossing on a demoted
  /// version queues it for epoch retirement.
  void unpin(snapshot_version* v) noexcept;

  /// Monotonic L1-invalidation counter: bumped on every active flip and on
  /// every zombie push.  Read it inside an epoch guard; an L1 entry stamped
  /// with an older value must not be served (see the file comment).
  /// Starts at 1, so 0 is a natural "never valid" sentinel for L1 entries.
  /// Shared across every handle bound to the same version_reclaim.
  std::uint64_t switch_epoch() const noexcept {
    return rec_.switch_epoch.load(std::memory_order_seq_cst);
  }

  // ------------------------------------------------------------- status --

  bool has_active() const noexcept {
    return active_.load(std::memory_order_acquire) != nullptr;
  }
  bool has_standby() const noexcept { return standby_ != nullptr; }
  /// Mid-run-readable from any thread (atomic_counter, relaxed).
  std::uint64_t installs() const noexcept { return installs_.value(); }
  std::uint64_t switches() const noexcept { return switches_.value(); }
  std::uint64_t switch_noops() const noexcept { return noops_.value(); }
  /// Retired/live accounting is per-reclaim-domain: with a shared
  /// version_reclaim these count versions across ALL its handles.
  std::uint64_t retired() const noexcept {
    return rec_.retired.load(std::memory_order_acquire);
  }
  /// Versions allocated and not yet freed (active + standby + flow-pinned +
  /// zombies awaiting grace).
  std::uint64_t live_versions() const noexcept {
    return rec_.live.load(std::memory_order_acquire);
  }
  const spinlock& flip_lock() const noexcept { return flip_lock_; }

  /// Writer-side counters under "<prefix>.installs", ".switches",
  /// ".switch_noops".  Written only by the writer thread; readable mid-run
  /// from any thread (single-writer atomic_counter).
  void register_metrics(metrics::registry& reg, const std::string& prefix);

 private:
  void push_zombie(snapshot_version* v) noexcept;
  /// Demote + release the held version and clear the hold.  Caller holds
  /// probation_mu_ and held_ is non-null.
  void retire_held_locked() noexcept;

  epoch_domain& epochs_;
  version_reclaim owned_;       ///< backing store for the single-handle ctor
  version_reclaim& rec_;        ///< the domain actually used (owned_ or shared)
  std::atomic<snapshot_version*> active_{nullptr};
  /// Readable mirror of the standby slot for shadow scoring; readers deref
  /// it only inside an epoch guard (see peek_shadow).
  std::atomic<snapshot_version*> shadow_{nullptr};
  snapshot_version* standby_ = nullptr;  ///< writer-only slot
  spinlock flip_lock_;
  std::uint64_t next_gen_ = 1;  ///< writer-only

  /// Probation state.  The mutex serializes switch_active's flip tail,
  /// rollback(), close_probation() and probation_tick() against each other
  /// (writer thread vs. sampler thread); it is never touched on the read
  /// path.  The counters below are only incremented under it, so their
  /// non-RMW single-writer increments stay exact.
  bool probation_enabled_ = false;  ///< set before any switch traffic
  mutable std::mutex probation_mu_;
  snapshot_version* held_ = nullptr;    ///< outgoing version on probation
  std::uint64_t held_promoted_gen_ = 0;  ///< gen whose switch opened the hold
  std::uint64_t held_age_ = 0;           ///< probation_tick()s so far

  metrics::atomic_counter installs_;   ///< written by the writer thread only
  metrics::atomic_counter switches_;   ///< written by the writer thread only
  metrics::atomic_counter noops_;      ///< written by the writer thread only
  metrics::atomic_counter rollbacks_;        ///< guarded by probation_mu_
  metrics::atomic_counter rollback_noops_;   ///< guarded by probation_mu_
  metrics::atomic_counter probation_retires_;  ///< guarded by probation_mu_
};

}  // namespace lf::rt
