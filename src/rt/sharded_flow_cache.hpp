// Sharded flow cache of the datapath engine — read-mostly.
//
// The engine's workers share 2^k shards; the simulated stack's one-thread
// engine has one.  A spinlock taken on every route made 4 workers *slower*
// than one, so the shard hot path is lock-free in the common case:
//
//  - Every slot field is a std::atomic (flow id, pinned version pointer,
//    last-used stamp, state byte), so concurrent probing is race-free by
//    construction (TSan-clean) without any lock.
//  - Lookups run a **seqlock-validated probe**: read the shard's sequence
//    counter, probe with acquire loads (state, flow, version), re-read the
//    counter.  An unchanged even counter proves no erase/evict/rehash
//    overlapped the probe, so the (flow → version) pair read is
//    consistent.  A torn probe retries, and after a few failed attempts
//    falls back to the shard spinlock (bounded wait; counted separately so
//    the bench can see it).  No standalone fence: the acquire loads keep
//    the re-read below the probe, which GCC's TSan models and a fence it
//    does not.
//  - Inserts publish with a release store of the state byte *last*, so a
//    concurrent reader either misses the slot entirely or sees fully
//    initialized fields — plain inserts do not bump the sequence counter
//    and therefore do not disturb concurrent readers at all.
//  - Structural mutation (insert/erase/incremental evict/expire/clear/grow)
//    keeps the per-shard spinlock.  Erase/evict/rehash additionally wrap
//    their slot writes in seq_write_begin()/seq_write_end() bumps, because
//    only those can re-bind a slot a reader is mid-probe on.  The slot
//    writes inside a bump (evict's tombstone, clear's empty state) are
//    release stores, so a probe that reads one also sees the bump before
//    it; rehash publishes its fresh table with a release store.
//  - Growth swaps in a new slot array and retires the old one through the
//    engine's epoch_domain: a reader that loaded the stale array pointer
//    keeps probing memory that stays allocated until its guard closes, then
//    fails seq validation and retries against the new array.  The next
//    rehash reclaims what the earlier ones retired.
//
// Entries pin a snapshot_version exactly as before: every eviction path —
// FIN erase, incremental idle sweep, full expiry, clear — funnels through
// snapshot_handle::unpin, so model removal remains refcount-gated (§3.4).
// The incremental idle sweep runs on the miss/insert path, not on the
// lock-free lookup: a steady state of pure hits performs no eviction work,
// which is sound because idle entries are created by churn, and churn means
// misses, FINs and inserts — exactly the operations that drive the sweep.
//
// Shards start small (64 slots) and double at 3/4 load, so an engine faults
// in only the table its flows fill.  A dense table puts several flows on one
// cache line, so a hit does not write the last-used stamp on every call: it
// refreshes it only once it is refresh_interval() = idle_timeout / 64 old.
// A stamp therefore lags its flow's last packet by less than that interval,
// and the engine's L1 (which reaches the L2 once per interval) adds at most
// one more; the sweeps evict only entries idle for longer than idle_timeout
// plus both lags, so a flow whose packets arrive less than idle_timeout
// apart is never evicted.
//
// Callers must be inside an epoch_domain::guard on the engine's domain for
// lookup() and insert(): the guard is what keeps a just-erased version and
// a just-retired slot array dereferenceable until the call returns.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netsim/packet.hpp"
#include "rt/epoch.hpp"
#include "rt/snapshot_handle.hpp"
#include "rt/spinlock.hpp"

namespace lf::rt {

/// Round up to the next power of two (>= 1).  Shared by the shard count,
/// per-shard capacity and the engine's worker-derived shard default.
constexpr std::size_t round_up_pow2(std::size_t v) noexcept {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

class sharded_flow_cache {
 public:
  /// `shards` is rounded up to a power of two; each shard starts with 64
  /// slots and grows at 3/4 load.  Entries idle for longer than
  /// `idle_timeout` seconds (plus the stamps' lag, see the file comment) are
  /// evicted by the sweeps.  Old slot arrays are retired through `epochs`,
  /// which must outlive the cache.
  sharded_flow_cache(std::size_t shards, double idle_timeout,
                     epoch_domain& epochs);
  /// As above, with each shard starting at `shard_capacity` slots (rounded
  /// up to a power of two, at least 4): lets tests pin a table's geometry.
  sharded_flow_cache(std::size_t shards, std::size_t shard_capacity,
                     double idle_timeout, epoch_domain& epochs);

  sharded_flow_cache(const sharded_flow_cache&) = delete;
  sharded_flow_cache& operator=(const sharded_flow_cache&) = delete;

  /// Teardown: requires readers stopped (frees the live slot arrays
  /// directly; arrays retired earlier drain through the epoch domain).
  ~sharded_flow_cache();

  /// Hit path: seqlock-validated lock-free probe.  Returns the pinned
  /// version (nullptr on miss) and, on a hit, moves the entry's last-used
  /// stamp to `now` if it is at least refresh_interval() old.  MUST be
  /// called inside an epoch guard.  Takes the shard lock only after
  /// repeated seq-validation failures (counted).
  snapshot_version* lookup(netsim::flow_id_t flow, double now) noexcept;

  /// Miss path: insert `flow` pinned to `ver` (the caller already holds the
  /// pin being transferred into the entry).  Runs the shard's incremental
  /// idle sweep (`evict_slots` buckets) under the same lock acquisition.  If
  /// another thread inserted the flow concurrently, the resident entry wins:
  /// the transferred pin is released and the resident version returned so
  /// the caller serves the flow consistently.  After a rehash it runs the
  /// epoch domain's try_reclaim() once the shard lock is released, so the
  /// slot arrays earlier rehashes retired are freed even if nobody calls
  /// maintain().  MUST be called inside an epoch guard.
  snapshot_version* insert(netsim::flow_id_t flow, snapshot_version* ver,
                           double now, std::size_t evict_slots,
                           snapshot_handle& handle);

  /// FIN: drop the flow's entry and release its pin.  False if absent.
  bool erase(netsim::flow_id_t flow, snapshot_handle& handle);

  /// Full idle expiry over every shard (maintenance path).
  std::size_t expire_idle(double now, snapshot_handle& handle);

  /// Drop everything (teardown), releasing all pins.
  std::size_t clear(snapshot_handle& handle);

  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::size_t shard_of(netsim::flow_id_t flow) const noexcept;
  /// How old a last-used stamp gets before a hit refreshes it:
  /// idle_timeout / 64.  The engine's L1 reaches the L2 at this interval.
  double refresh_interval() const noexcept { return refresh_; }

  struct totals {
    std::size_t size = 0;
    std::size_t capacity = 0;
    std::uint64_t evictions = 0;
    std::uint64_t rehashes = 0;
    std::uint64_t lock_acquisitions = 0;
    std::uint64_t lock_contended = 0;
    std::uint64_t read_retries = 0;    ///< seq-validation retries (lock-free)
    std::uint64_t read_fallbacks = 0;  ///< lookups that fell back to the lock
  };

  /// Sum of the per-shard stats.  Safe to call mid-run from any thread (the
  /// stats sampler does): the counters it reads are single-writer-under-lock
  /// relaxed atomics, so a concurrent read sees recent, untorn, monotonic
  /// values.  For exact end-of-run numbers, call after the workers stop.
  totals stats() const;

 private:
  enum : std::uint8_t { k_empty = 0, k_tombstone = 1, k_occupied = 2 };

  /// One probe slot.  All fields atomic so lock-free readers race no plain
  /// memory; writers publish occupancy with a release store of `state`.
  struct slot {
    std::atomic<netsim::flow_id_t> flow{0};
    std::atomic<snapshot_version*> ver{nullptr};
    std::atomic<std::uint64_t> stamp{0};  ///< bit-cast double, last_used
    std::atomic<std::uint8_t> state{k_empty};
  };

  /// Immutable-geometry slot array; the current one is published through an
  /// atomic pointer and superseded arrays are epoch-retired.
  struct table {
    explicit table(std::size_t capacity)
        : mask{capacity - 1}, slots(new slot[capacity]) {}
    const std::size_t mask;  ///< capacity - 1 (capacity is a power of two)
    std::unique_ptr<slot[]> slots;
  };

  struct alignas(64) shard {
    explicit shard(std::size_t capacity)
        : tbl{new table{round_up_pow2(capacity < 4 ? 4 : capacity)}} {}
    ~shard() { delete tbl.load(std::memory_order_relaxed); }

    spinlock lock;                   ///< insert/erase/evict/rehash
    std::atomic<std::uint64_t> seq{0};  ///< odd while a writer mutates slots
    std::atomic<table*> tbl;
    // Written only under `lock`.  occupied/evictions/rehashes are relaxed
    // atomics because stats() reads them mid-run from sampler threads;
    // the lock still serializes writers, so plain load+add+store updates
    // (see bump/bump_sub) never lose an increment.  tombstones/sweep_cursor
    // are writer-internal and stay plain.
    std::atomic<std::size_t> occupied{0};
    std::size_t tombstones = 0;
    std::size_t sweep_cursor = 0;
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> rehashes{0};
    // Reader-side slow-path accounting (atomic: touched only on seq
    // conflicts, never on the clean lock-free fast path):
    std::atomic<std::uint64_t> read_retries{0};
    std::atomic<std::uint64_t> read_fallbacks{0};

    void seq_write_begin() noexcept {
      seq.fetch_add(1, std::memory_order_acq_rel);
    }
    void seq_write_end() noexcept {
      seq.fetch_add(1, std::memory_order_release);
    }

    /// Lock-holder-only counter updates (RMW-free; see the member comment).
    template <typename T>
    static void bump(std::atomic<T>& c, T n = 1) noexcept {
      c.store(c.load(std::memory_order_relaxed) + n,
              std::memory_order_relaxed);
    }
    template <typename T>
    static void bump_sub(std::atomic<T>& c, T n = 1) noexcept {
      c.store(c.load(std::memory_order_relaxed) - n,
              std::memory_order_relaxed);
    }
  };

  static std::size_t bucket_of(const table& t, netsim::flow_id_t flow) noexcept;

  /// Writer-side probe (under the shard lock): returns the slot holding
  /// `flow`, or the first reusable slot (tombstone preferred, else empty),
  /// or nullptr if the table is full of mismatches.
  static slot* probe_for_write(table& t, netsim::flow_id_t flow,
                               slot** reusable) noexcept;

  /// Drop one occupied slot (under the shard lock), releasing its pin.
  void evict_slot(shard& sh, slot& s, snapshot_handle& handle);

  /// Grow (or scrub) the shard's table to `new_capacity` (under the shard
  /// lock); the old array is retired through the epoch domain.
  void rehash(shard& sh, std::size_t new_capacity);

  /// Incremental idle sweep (under the shard lock).
  std::size_t step_evict(shard& sh, double now, std::size_t slots,
                         snapshot_handle& handle);

  /// Move `s`'s stamp to `now` if it is at least refresh_ old.
  void touch(slot& s, double now) noexcept;
  /// True when `s` was last used longer than evict_after_ before `now`.
  bool idle(const slot& s, double now) const noexcept;

  epoch_domain& epochs_;
  double refresh_;      ///< idle_timeout / 64 (see refresh_interval())
  double evict_after_;  ///< idle_timeout + 2 * refresh_
  std::vector<std::unique_ptr<shard>> shards_;
  std::size_t shard_shift_ = 0;  ///< top bits of the mixed hash pick the shard
};

}  // namespace lf::rt
