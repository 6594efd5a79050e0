// Tests for the flow cache the simulated stack serves through: the engine's
// sharded_flow_cache with one shard (insert/hit/FIN/idle expiry, growth and
// tombstone reclamation, the insert-driven idle sweep), and the core
// module's flow pinning and pin draining across snapshot switches.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/liteflow_core.hpp"
#include "nn/mlp.hpp"
#include "rt/sharded_flow_cache.hpp"
#include "util/rng.hpp"

namespace {

using namespace lf;

codegen::snapshot tiny_snapshot(const std::string& name,
                                std::uint64_t version) {
  rng g{12};
  const auto net = nn::make_ffnn_flow_size_net(g);
  return codegen::generate_snapshot(net, name, version);
}

// ------------------------------------------------------------ flow cache --

/// One shard, one reader inside its epoch guard for the rig's lifetime, and
/// one active version that every entry pins.
struct cache_rig {
  explicit cache_rig(std::size_t capacity) : cache{1, capacity, epochs} {
    handle.install_standby(tiny_snapshot("ffnn", 1));
    handle.switch_active();
    v = handle.pin_active();
    handle.unpin(v);  // the ownership pin keeps it; count back to 1
  }
  ~cache_rig() { cache.clear(handle); }

  /// Insert `flow` last used at `now`, transferring a fresh pin; `sweep`
  /// buckets of the idle sweep (against `timeout`) ride along.
  rt::snapshot_version* insert(netsim::flow_id_t flow, double now,
                               std::size_t sweep = 0,
                               double timeout = 30.0) {
    return cache.insert(flow, handle.pin_active(), now, timeout, sweep,
                        handle);
  }
  bool find(netsim::flow_id_t flow) {
    return cache.lookup(flow, 0.0) != nullptr;
  }
  std::size_t size() const { return cache.stats().size; }
  std::size_t capacity() const { return cache.stats().capacity; }
  std::uint64_t evictions() const { return cache.stats().evictions; }
  std::uint64_t rehashes() const { return cache.stats().rehashes; }

  rt::epoch_domain epochs{1};
  rt::snapshot_handle handle{epochs};
  rt::sharded_flow_cache cache;
  std::size_t slot = epochs.register_reader();
  rt::epoch_domain::guard guard{epochs, slot};
  rt::snapshot_version* v = nullptr;
};

TEST(FlowCache, InsertFindErase) {
  cache_rig c{16};
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.cache.lookup(7, 0.0), nullptr);
  EXPECT_EQ(c.insert(7, 1.0), c.v);
  EXPECT_EQ(c.cache.lookup(7, 1.0), c.v);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.v->pins.load(), 2u);  // ownership + the entry
  EXPECT_TRUE(c.cache.erase(7, c.handle));
  EXPECT_EQ(c.v->pins.load(), 1u);  // FIN released the entry's pin
  EXPECT_EQ(c.cache.lookup(7, 1.0), nullptr);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_FALSE(c.cache.erase(7, c.handle));  // absent
}

TEST(FlowCache, OccupancyGaugeSurvivesRehash) {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  core::liteflow_core core{s, cpu, costs};
  metrics::registry reg;
  core.register_metrics(reg, "t");
  core.register_model(tiny_snapshot("ffnn", 1));
  core.switch_active();
  for (netsim::flow_id_t f = 0; f < 1000; ++f) core.route(f);
  ASSERT_GT(reg.find_gauge("t.core.router.cache.rehashes")->value(), 0.0);
  EXPECT_DOUBLE_EQ(reg.find_gauge("t.core.router.cache.occupancy")->value(),
                   1000.0);
}

TEST(FlowCache, GrowsPastInitialCapacityWithoutLosingEntries) {
  cache_rig c{16};
  const std::size_t cap0 = c.capacity();
  for (netsim::flow_id_t f = 0; f < 1000; ++f) c.insert(f, 0.0);
  EXPECT_EQ(c.size(), 1000u);
  EXPECT_GT(c.capacity(), cap0);
  EXPECT_GT(c.rehashes(), 0u);
  for (netsim::flow_id_t f = 0; f < 1000; ++f) {
    ASSERT_TRUE(c.find(f)) << "flow " << f;
  }
  EXPECT_EQ(c.v->pins.load(), 1001u);
}

TEST(FlowCache, TombstonesAreReclaimedByChurn) {
  // Steady insert+erase churn at constant live size must not grow the table
  // without bound: tombstones get reused or scrubbed by the periodic rehash.
  cache_rig c{64};
  netsim::flow_id_t next = 0;
  for (; next < 32; ++next) c.insert(next, 0.0);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_TRUE(c.cache.erase(next - 32, c.handle));
    c.insert(next, 0.0);
    ++next;
  }
  EXPECT_EQ(c.size(), 32u);
  EXPECT_LE(c.capacity(), 256u);  // bounded despite 100k inserts
  for (netsim::flow_id_t f = next - 32; f < next; ++f) {
    ASSERT_TRUE(c.find(f));
  }
}

TEST(FlowCache, CollidingFlowsAllFindable) {
  // Adversarial-ish: ids that alias mod capacity.
  cache_rig c{16};
  std::vector<netsim::flow_id_t> flows;
  for (int i = 0; i < 40; ++i) flows.push_back(1 + i * 16);
  for (const auto f : flows) c.insert(f, 0.5);
  for (const auto f : flows) ASSERT_TRUE(c.find(f)) << "flow " << f;
  // Erase every other one, then verify probes still reach the survivors
  // (tombstones must not terminate the probe chain).
  for (std::size_t i = 0; i < flows.size(); i += 2) {
    c.cache.erase(flows[i], c.handle);
  }
  for (std::size_t i = 1; i < flows.size(); i += 2) {
    ASSERT_TRUE(c.find(flows[i])) << "flow " << flows[i];
  }
}

TEST(FlowCache, ExpireIdleSweepsEverything) {
  cache_rig c{64};
  for (netsim::flow_id_t f = 0; f < 20; ++f) {
    c.insert(f, f < 10 ? 0.0 : 50.0);  // half old, half fresh
  }
  EXPECT_EQ(c.cache.expire_idle(60.0, 30.0, c.handle), 10u);
  EXPECT_EQ(c.size(), 10u);
  EXPECT_EQ(c.v->pins.load(), 11u);  // each eviction released its pin
  for (netsim::flow_id_t f = 0; f < 10; ++f) EXPECT_FALSE(c.find(f));
  for (netsim::flow_id_t f = 10; f < 20; ++f) EXPECT_TRUE(c.find(f));
}

TEST(FlowCache, StepEvictDrainsIncrementally) {
  // Each insert sweeps `slots` buckets; re-inserting a resident probe flow
  // runs the sweep without growing the table.  Sweeping must reach every
  // stale entry within one full lap, regardless of where they hash.
  cache_rig c{128};
  for (netsim::flow_id_t f = 0; f < 30; ++f) c.insert(f, 0.0);
  const std::size_t laps = c.capacity() / 4 + 1;
  for (std::size_t i = 0; i < laps; ++i) c.insert(9999, 100.0, 4);
  EXPECT_EQ(c.evictions(), 30u);
  EXPECT_EQ(c.size(), 1u);  // the probe flow
}

TEST(FlowCache, StepEvictSparesFreshEntries) {
  cache_rig c{64};
  for (netsim::flow_id_t f = 0; f < 16; ++f) c.insert(f, 99.0);
  for (int i = 0; i < 200; ++i) c.insert(9999, 100.0, 4);
  EXPECT_EQ(c.evictions(), 0u);
  EXPECT_EQ(c.size(), 17u);
}

TEST(FlowCache, ClearReleasesEveryEntry) {
  cache_rig c{32};
  for (netsim::flow_id_t f = 0; f < 10; ++f) c.insert(f, 0.0);
  EXPECT_EQ(c.cache.clear(c.handle), 10u);
  EXPECT_EQ(c.v->pins.load(), 1u);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_FALSE(c.find(3));
}

// splitmix64 finalizer, mirrored from sharded_flow_cache.cpp so tests can
// place flows into known home buckets of a one-shard, 16-slot table.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

netsim::flow_id_t flow_for_bucket(std::size_t bucket,
                                  netsim::flow_id_t start = 0) {
  netsim::flow_id_t f = start;
  while ((static_cast<std::size_t>(mix64(f)) & 15u) != bucket) ++f;
  return f;
}

TEST(FlowCache, ScrubMidSweepDoesNotRestartTheSweep) {
  // A tombstone scrub (same-size rehash) landing mid-sweep must keep the
  // sweep cursor where it was: sending it back to slot 0 would re-visit the
  // head of the table forever under recurring scrubs and never evict stale
  // entries parked in the tail.
  cache_rig c{16};
  ASSERT_EQ(c.capacity(), 16u);

  // A stale victim in the tail (home bucket 14) and two fillers in the head
  // (buckets 0 and 1).  Distinct home buckets mean every entry sits exactly
  // in its bucket, before and after the scrub's re-insertion.
  const auto victim = flow_for_bucket(14);
  const auto keep0 = flow_for_bucket(0);
  const auto keep1 = flow_for_bucket(1);
  c.insert(victim, 0.0);  // will be idle by t=2000
  c.insert(keep0, 3000.0);
  c.insert(keep1, 3000.0);

  // Advance the sweep cursor halfway through the table without evicting
  // anything (victim is only 500s old against a 1000s timeout).
  c.insert(keep0, 500.0, 8, 1000.0);
  EXPECT_EQ(c.evictions(), 0u);

  // Park tombstones in the other buckets (insert into an empty bucket,
  // erase) until an insert crosses the load factor and scrubs in place.
  for (std::size_t b = 2; b <= 15 && c.rehashes() == 0; ++b) {
    if (b == 14) continue;  // the victim's bucket
    const auto tmp = flow_for_bucket(b, victim + 1);
    c.insert(tmp, 600.0);
    c.cache.erase(tmp, c.handle);
  }
  EXPECT_EQ(c.rehashes(), 1u);
  EXPECT_EQ(c.capacity(), 16u);  // scrub, not growth
  EXPECT_EQ(c.size(), 3u);

  // One more 8-slot sweep step must finish the lap — slots 8..15, which
  // include the victim.  A cursor reset to 0 would sweep slots 0..7 again
  // and evict nothing.
  const std::uint64_t before = c.evictions();
  c.insert(keep1, 2000.0, 8, 1000.0);
  EXPECT_EQ(c.evictions() - before, 1u);
  EXPECT_FALSE(c.find(victim));
  // The fillers survive.
  EXPECT_TRUE(c.find(keep0));
  EXPECT_TRUE(c.find(keep1));
}

TEST(FlowCache, GrowthMidSweepPreservesSweepProgress) {
  // The growth rehash doubles capacity; the scaled cursor keeps relative
  // position, so sweep work to cover the table stays bounded by its size.
  cache_rig c{16};
  ASSERT_EQ(c.capacity(), 16u);
  // Advance the cursor to slot 8 of 16.
  const auto first = flow_for_bucket(0);
  c.insert(first, 0.0);
  c.insert(first, 1.0, 8, 1000.0);
  // Trigger growth to 32 slots.
  for (netsim::flow_id_t f = 1000; f < 1012; ++f) c.insert(f, 1.0);
  ASSERT_EQ(c.capacity(), 32u);
  // Two 16-slot steps cover the new table once: every entry is stale by
  // t=5000, and only the probe flow inserted by the steps remains.
  c.insert(9999, 5000.0, 16, 1000.0);
  c.insert(9999, 5000.0, 16, 1000.0);
  EXPECT_EQ(c.evictions(), 13u);
  EXPECT_EQ(c.size(), 1u);
}

TEST(FlowCache, RandomizedAgainstReferenceMap) {
  // Model-based check: random insert/erase/lookup against a std::set oracle.
  cache_rig c{16};
  std::set<netsim::flow_id_t> oracle;
  rng g{0xcafe};
  for (int step = 0; step < 20000; ++step) {
    const auto f = static_cast<netsim::flow_id_t>(g.uniform_int(0, 400));
    switch (g.uniform_int(0, 2)) {
      case 0:
        if (oracle.insert(f).second) c.insert(f, 0.0);
        break;
      case 1:
        EXPECT_EQ(c.cache.erase(f, c.handle), oracle.erase(f) > 0);
        break;
      default:
        EXPECT_EQ(c.find(f), oracle.count(f) > 0);
        break;
    }
  }
  EXPECT_EQ(c.size(), oracle.size());
  EXPECT_EQ(c.v->pins.load(), oracle.size() + 1);
}

// ---------------------------------------------------- router integration --

struct core_rig {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  core::liteflow_core core{s, cpu, costs};
};

TEST(RouterFlowCache, PinsFlowsAndDrainsRefsAcrossSwitch) {
  core_rig r;
  const auto v1 = r.core.register_model(tiny_snapshot("ffnn", 1));
  r.core.switch_active();
  for (netsim::flow_id_t f = 0; f < 100; ++f) {
    EXPECT_EQ(r.core.route(f), v1);  // pins each flow
  }
  EXPECT_EQ(r.core.engine().cached_flows(), 100u);

  const auto v2 = r.core.register_model(tiny_snapshot("ffnn", 2));
  r.core.switch_active();
  // Existing flows stay pinned to v1; new flows go to v2.
  EXPECT_EQ(r.core.route(5), v1);
  EXPECT_EQ(r.core.route(1000), v2);
  EXPECT_EQ(r.core.engine().versions_live(), 2u);  // 100 flows pin v1
  for (netsim::flow_id_t f = 0; f < 99; ++f) r.core.flow_finished(f);
  EXPECT_EQ(r.core.engine().versions_live(), 2u);
  r.core.flow_finished(99);
  EXPECT_EQ(r.core.engine().versions_live(), 1u);  // unloaded at its last FIN
  EXPECT_EQ(r.core.route(5), v2);  // re-routes to the new active
}

TEST(RouterFlowCache, IncrementalEvictionDrainsIdleFlowsDuringRouting) {
  core_rig r;
  r.core.register_model(tiny_snapshot("ffnn", 1));
  r.core.switch_active();
  for (netsim::flow_id_t f = 0; f < 64; ++f) r.core.route(f);
  r.core.register_model(tiny_snapshot("ffnn", 2));
  r.core.switch_active();
  EXPECT_EQ(r.core.engine().versions_live(), 2u);  // 64 idle flows pin v1
  // Past the 30 s idle timeout, new flows keep missing: the sweep on their
  // miss path alone drains every stale entry, and v1 unloads with the last.
  r.s.schedule_at(100.0, [&]() {
    for (netsim::flow_id_t f = 1000; f < 1600; ++f) r.core.route(f);
  });
  r.s.run();
  EXPECT_EQ(r.core.engine().cache().stats().evictions, 64u);
  EXPECT_EQ(r.core.engine().versions_live(), 1u);
}

}  // namespace
