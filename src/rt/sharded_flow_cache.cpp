#include "rt/sharded_flow_cache.hpp"

#include <bit>

namespace lf::rt {
namespace {

/// splitmix64 finalizer: flow ids are often small sequential integers, so a
/// strong mix is what keeps linear probe chains short.  The shard index
/// takes the *top* bits and the in-shard bucket the low bits, so the two
/// choices stay decorrelated.
constexpr std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline std::uint64_t stamp_bits(double now) noexcept {
  return std::bit_cast<std::uint64_t>(now);
}

inline double stamp_seconds(std::uint64_t bits) noexcept {
  return std::bit_cast<double>(bits);
}

/// Seq-validation attempts before a lookup falls back to the shard lock.
/// Conflicts require a concurrent erase/evict/rehash on the same shard, so
/// even 2 attempts almost always suffice; the fallback only bounds the tail.
constexpr int k_read_attempts = 8;

/// Slots a shard starts with.  A shard rehashes before live entries plus
/// tombstones pass 3/4 of its slots (`over_load`), doubling when over half
/// of them are live, as the kernel's rhashtable grows: starting small costs
/// a few early rehashes and spares every engine a large, cold table.  Not
/// smaller: with 16, `rt_harness stress`, whose 4 workers share each shard,
/// lost ~9% of its routes/s to the denser tables.
constexpr std::size_t k_initial_slots = 64;

constexpr bool over_load(std::size_t used, std::size_t capacity) noexcept {
  return used * 4 > capacity * 3;
}

/// A last-used stamp is refreshed once it is idle_timeout / 64 old.
constexpr double k_refresh_fraction = 1.0 / 64.0;

}  // namespace

sharded_flow_cache::sharded_flow_cache(std::size_t shards, double idle_timeout,
                                       epoch_domain& epochs)
    : sharded_flow_cache{shards, k_initial_slots, idle_timeout, epochs} {}

sharded_flow_cache::sharded_flow_cache(std::size_t shards,
                                       std::size_t shard_capacity,
                                       double idle_timeout,
                                       epoch_domain& epochs)
    : epochs_{epochs},
      refresh_{idle_timeout * k_refresh_fraction},
      evict_after_{idle_timeout + 2 * refresh_} {
  const std::size_t n = round_up_pow2(shards == 0 ? 1 : shards);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<shard>(shard_capacity));
  }
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  shard_shift_ = 64 - bits;
}

sharded_flow_cache::~sharded_flow_cache() = default;

std::size_t sharded_flow_cache::shard_of(netsim::flow_id_t flow) const noexcept {
  if (shards_.size() == 1) return 0;
  return static_cast<std::size_t>(mix(flow) >> shard_shift_);
}

std::size_t sharded_flow_cache::bucket_of(const table& t,
                                          netsim::flow_id_t flow) noexcept {
  return static_cast<std::size_t>(mix(flow)) & t.mask;
}

snapshot_version* sharded_flow_cache::lookup(netsim::flow_id_t flow,
                                             double now) noexcept {
  shard& sh = *shards_[shard_of(flow)];
  for (int attempt = 0; attempt < k_read_attempts; ++attempt) {
    const std::uint64_t s0 = sh.seq.load(std::memory_order_acquire);
    if ((s0 & 1) != 0) {
      // A writer is mid-mutation; its critical section is a handful of
      // stores, so retrying immediately is cheaper than blocking.
      sh.read_retries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    table* const t = sh.tbl.load(std::memory_order_acquire);
    slot* found = nullptr;
    std::size_t idx = bucket_of(*t, flow);
    for (std::size_t n = 0; n <= t->mask; ++n, idx = (idx + 1) & t->mask) {
      slot& s = t->slots[idx];
      const std::uint8_t st = s.state.load(std::memory_order_acquire);
      if (st == k_empty) break;
      if (st == k_occupied &&
          s.flow.load(std::memory_order_acquire) == flow) {
        found = &s;
        break;
      }
    }
    snapshot_version* const v =
        found != nullptr ? found->ver.load(std::memory_order_acquire)
                         : nullptr;
    // Seqlock validation without a standalone fence: every probe load is
    // an acquire, so none can sink below the re-read.  A slot store made
    // inside a seq bump is a release, so a probe that read it also sees
    // the bump and the re-read differs from s0.
    if (sh.seq.load(std::memory_order_relaxed) != s0) {
      // An erase/evict/rehash overlapped the probe: the (flow, ver) pair
      // may be torn, so nothing read this round can be trusted.
      sh.read_retries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (found == nullptr || v == nullptr) {
      // Validated miss.  (`v == nullptr` with a matching slot means the
      // probe raced a concurrent insert's field stores; treating it as a
      // miss is benign — the insert path's resident-wins check resolves
      // the duplicate.)
      return nullptr;
    }
    // Hit: keep the stamp within refresh_ of the flow's traffic so the
    // idle sweep sees the flow as hot.  Writing it only once it is that old
    // keeps hits on neighbouring slots from bouncing one cache line between
    // workers.  Relaxed: the stamp is advisory, read only by the sweeps.
    touch(*found, now);
    return v;
  }
  // Persistent seq conflicts (eviction storm on this shard): take the lock
  // for an authoritative probe so the lookup cannot livelock.
  sh.read_fallbacks.fetch_add(1, std::memory_order_relaxed);
  spin_guard g{sh.lock};
  table& t = *sh.tbl.load(std::memory_order_relaxed);
  slot* reusable = nullptr;
  if (slot* s = probe_for_write(t, flow, &reusable)) {
    touch(*s, now);
    return s->ver.load(std::memory_order_relaxed);
  }
  return nullptr;
}

void sharded_flow_cache::touch(slot& s, double now) noexcept {
  const double last = stamp_seconds(s.stamp.load(std::memory_order_relaxed));
  if (now - last >= refresh_) {
    s.stamp.store(stamp_bits(now), std::memory_order_relaxed);
  }
}

bool sharded_flow_cache::idle(const slot& s, double now) const noexcept {
  return now - stamp_seconds(s.stamp.load(std::memory_order_relaxed)) >
         evict_after_;
}

sharded_flow_cache::slot* sharded_flow_cache::probe_for_write(
    table& t, netsim::flow_id_t flow, slot** reusable) noexcept {
  std::size_t idx = bucket_of(t, flow);
  for (std::size_t n = 0; n <= t.mask; ++n, idx = (idx + 1) & t.mask) {
    slot& s = t.slots[idx];
    const std::uint8_t st = s.state.load(std::memory_order_relaxed);
    if (st == k_empty) {
      if (*reusable == nullptr) *reusable = &s;
      return nullptr;
    }
    if (st == k_tombstone) {
      if (*reusable == nullptr) *reusable = &s;
      continue;
    }
    if (s.flow.load(std::memory_order_relaxed) == flow) return &s;
  }
  return nullptr;
}

snapshot_version* sharded_flow_cache::insert(netsim::flow_id_t flow,
                                             snapshot_version* ver, double now,
                                             std::size_t evict_slots,
                                             snapshot_handle& handle) {
  shard& sh = *shards_[shard_of(flow)];
  snapshot_version* resident = nullptr;
  bool rehashed = false;
  {
    spin_guard g{sh.lock};
    // The incremental idle sweep rides the miss path now that lookups are
    // lock-free: churn (misses/FINs/inserts) is what creates idle entries,
    // so it is also what pays for draining them.
    if (evict_slots > 0) step_evict(sh, now, evict_slots, handle);
    table* t = sh.tbl.load(std::memory_order_relaxed);
    slot* reusable = nullptr;
    if (slot* s = probe_for_write(*t, flow, &reusable)) {
      // Lost an insert race for the same flow: the resident entry wins so
      // the flow stays on one generation.
      s->stamp.store(stamp_bits(now), std::memory_order_relaxed);
      resident = s->ver.load(std::memory_order_relaxed);
    } else {
      const std::size_t cap = t->mask + 1;
      const std::size_t occ = sh.occupied.load(std::memory_order_relaxed);
      if (over_load(occ + sh.tombstones + 1, cap)) {
        // Grow on genuine pressure; when tombstones alone crossed the load
        // factor, scrub them into a fresh table of the same size.
        rehash(sh, occ + 1 > cap / 2 ? cap * 2 : cap);
        rehashed = true;
        t = sh.tbl.load(std::memory_order_relaxed);
        reusable = nullptr;
        (void)probe_for_write(*t, flow, &reusable);
      }
      slot& dst = *reusable;
      const bool reusing_tombstone =
          dst.state.load(std::memory_order_relaxed) == k_tombstone;
      // Publication order: fields first, then the state byte with release.
      // A concurrent lock-free probe either skips the slot (stale state) or
      // sees fully initialized fields through its acquire load of `state`;
      // no seq bump is needed because no (flow → ver) binding visible to a
      // reader is ever changed by a plain insert.
      dst.flow.store(flow, std::memory_order_relaxed);
      dst.ver.store(ver, std::memory_order_relaxed);
      dst.stamp.store(stamp_bits(now), std::memory_order_relaxed);
      dst.state.store(k_occupied, std::memory_order_release);
      shard::bump(sh.occupied);
      if (reusing_tombstone) --sh.tombstones;
    }
  }
  if (rehashed) {
    // Free the arrays earlier rehashes retired, so churn that never calls
    // maintain() cannot pile them up.  Safe inside the caller's epoch
    // guard: its own slot holds back anything it could still reach,
    // including the array this rehash just retired.
    epochs_.try_reclaim();
  }
  if (resident != nullptr) {
    // Release the pin we brought; the caller's epoch guard keeps `resident`
    // alive even if a racing FIN drops the entry's pin right now.
    handle.unpin(ver);
    return resident;
  }
  return ver;
}

void sharded_flow_cache::evict_slot(shard& sh, slot& s,
                                    snapshot_handle& handle) {
  snapshot_version* const v = s.ver.load(std::memory_order_relaxed);
  // The seq bump brackets the re-binding store: any lock-free probe that
  // overlapped it re-runs and sees the tombstone.
  sh.seq_write_begin();
  s.state.store(k_tombstone, std::memory_order_release);
  sh.seq_write_end();
  shard::bump_sub(sh.occupied);
  ++sh.tombstones;
  shard::bump(sh.evictions);
  handle.unpin(v);
}

void sharded_flow_cache::rehash(shard& sh, std::size_t new_capacity) {
  table* const old = sh.tbl.load(std::memory_order_relaxed);
  auto* fresh = new table{round_up_pow2(new_capacity)};
  for (std::size_t i = 0; i <= old->mask; ++i) {
    slot& s = old->slots[i];
    if (s.state.load(std::memory_order_relaxed) != k_occupied) continue;
    const netsim::flow_id_t flow = s.flow.load(std::memory_order_relaxed);
    std::size_t idx = bucket_of(*fresh, flow);
    while (fresh->slots[idx].state.load(std::memory_order_relaxed) !=
           k_empty) {
      idx = (idx + 1) & fresh->mask;
    }
    slot& d = fresh->slots[idx];
    d.flow.store(flow, std::memory_order_relaxed);
    d.ver.store(s.ver.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    d.stamp.store(s.stamp.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    d.state.store(k_occupied, std::memory_order_relaxed);
  }
  // Scale the sweep cursor into the new layout instead of restarting at 0:
  // a rehash mid-sweep then neither re-visits the head nor starves the
  // tail.
  sh.sweep_cursor = old->mask == 0
                        ? 0
                        : (sh.sweep_cursor * (fresh->mask + 1)) /
                              (old->mask + 1) & fresh->mask;
  sh.tombstones = 0;
  shard::bump(sh.rehashes);
  sh.seq_write_begin();
  sh.tbl.store(fresh, std::memory_order_release);
  sh.seq_write_end();
  // Readers inside an epoch guard may still be probing the old array; free
  // it only after a grace period proves they are gone.
  epochs_.retire([old]() { delete old; });
}

std::size_t sharded_flow_cache::step_evict(shard& sh, double now,
                                           std::size_t slots,
                                           snapshot_handle& handle) {
  table& t = *sh.tbl.load(std::memory_order_relaxed);
  std::size_t evicted = 0;
  for (std::size_t n = 0; n < slots; ++n) {
    slot& s = t.slots[sh.sweep_cursor];
    sh.sweep_cursor = (sh.sweep_cursor + 1) & t.mask;
    if (s.state.load(std::memory_order_relaxed) != k_occupied) continue;
    if (idle(s, now)) {
      evict_slot(sh, s, handle);
      ++evicted;
    }
  }
  return evicted;
}

bool sharded_flow_cache::erase(netsim::flow_id_t flow,
                               snapshot_handle& handle) {
  shard& sh = *shards_[shard_of(flow)];
  spin_guard g{sh.lock};
  table& t = *sh.tbl.load(std::memory_order_relaxed);
  slot* reusable = nullptr;
  slot* const s = probe_for_write(t, flow, &reusable);
  if (s == nullptr) return false;
  evict_slot(sh, *s, handle);
  return true;
}

std::size_t sharded_flow_cache::expire_idle(double now,
                                            snapshot_handle& handle) {
  std::size_t evicted = 0;
  for (auto& shp : shards_) {
    shard& sh = *shp;
    spin_guard g{sh.lock};
    table& t = *sh.tbl.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i <= t.mask; ++i) {
      slot& s = t.slots[i];
      if (s.state.load(std::memory_order_relaxed) != k_occupied) continue;
      if (idle(s, now)) {
        evict_slot(sh, s, handle);
        ++evicted;
      }
    }
  }
  return evicted;
}

std::size_t sharded_flow_cache::clear(snapshot_handle& handle) {
  std::size_t dropped = 0;
  for (auto& shp : shards_) {
    shard& sh = *shp;
    spin_guard g{sh.lock};
    table& t = *sh.tbl.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i <= t.mask; ++i) {
      slot& s = t.slots[i];
      const std::uint8_t st = s.state.load(std::memory_order_relaxed);
      if (st == k_occupied) {
        ++dropped;
        evict_slot(sh, s, handle);
      }
      if (st != k_empty) {
        sh.seq_write_begin();
        s.state.store(k_empty, std::memory_order_release);
        sh.seq_write_end();
      }
    }
    sh.tombstones = 0;
    sh.sweep_cursor = 0;
  }
  return dropped;
}

sharded_flow_cache::totals sharded_flow_cache::stats() const {
  totals t;
  for (const auto& shp : shards_) {
    const shard& sh = *shp;
    t.size += sh.occupied.load(std::memory_order_relaxed);
    t.capacity += sh.tbl.load(std::memory_order_relaxed)->mask + 1;
    t.evictions += sh.evictions.load(std::memory_order_relaxed);
    t.rehashes += sh.rehashes.load(std::memory_order_relaxed);
    t.lock_acquisitions += sh.lock.acquisitions();
    t.lock_contended += sh.lock.contended_acquisitions();
    t.read_retries += sh.read_retries.load(std::memory_order_relaxed);
    t.read_fallbacks += sh.read_fallbacks.load(std::memory_order_relaxed);
  }
  return t;
}

}  // namespace lf::rt
