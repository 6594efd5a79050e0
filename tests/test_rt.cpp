// Tests for the real-thread datapath engine (src/rt): epoch-based
// reclamation grace periods, the pin/demote snapshot lifecycle, the sharded
// flow cache's pin transfer and eviction paths, engine-level flow
// consistency across switches, and a short deterministic 2-thread
// interleaving smoke.  Everything here runs in the normal ctest tier; the
// heavy randomized multi-thread stress lives in rt_harness (TSan CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "codegen/snapshot.hpp"
#include "core/model_domain.hpp"
#include "nn/mlp.hpp"
#include "rt/engine.hpp"
#include "rt/epoch.hpp"
#include "rt/flight_recorder.hpp"
#include "rt/sharded_flow_cache.hpp"
#include "rt/snapshot_handle.hpp"
#include "rt/stats_sampler.hpp"
#include "util/latency_histogram.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace lf;

codegen::snapshot rt_snapshot(std::uint64_t version, std::uint64_t seed = 9) {
  rng g{seed};
  return codegen::generate_snapshot(nn::make_ffnn_flow_size_net(g), "rt-ffnn",
                                    version);
}

// -------------------------------------------------------------- epochs --

TEST(EpochDomain, SlotsAreFiniteAndNeverRecycled) {
  rt::epoch_domain d{2};
  EXPECT_EQ(d.register_reader(), 0u);
  EXPECT_EQ(d.register_reader(), 1u);
  EXPECT_EQ(d.reader_count(), 2u);
  EXPECT_THROW(d.register_reader(), std::length_error);
}

TEST(EpochDomain, RetireWaitsForOpenCriticalSection) {
  rt::epoch_domain d{2};
  const auto slot = d.register_reader();
  int freed = 0;
  {
    rt::epoch_domain::guard g{d, slot};
    d.retire([&]() { ++freed; });
    // The reader entered before the retire: its published epoch is older
    // than the retire target, so reclamation must hold off.
    EXPECT_EQ(d.try_reclaim(), 0u);
    EXPECT_EQ(freed, 0);
    EXPECT_EQ(d.retired_pending(), 1u);
  }
  // Section closed: the grace period has elapsed.
  EXPECT_EQ(d.try_reclaim(), 1u);
  EXPECT_EQ(freed, 1);
  EXPECT_EQ(d.retired_pending(), 0u);
  EXPECT_EQ(d.reclaimed(), 1u);
}

TEST(EpochDomain, ReaderEnteringAfterRetireDoesNotBlockIt) {
  rt::epoch_domain d{2};
  const auto slot = d.register_reader();
  int freed = 0;
  d.retire([&]() { ++freed; });
  // This section began after the retire's epoch advance, so it observed the
  // new epoch and can never hold the old pointer — reclamation proceeds.
  rt::epoch_domain::guard g{d, slot};
  EXPECT_EQ(d.try_reclaim(), 1u);
  EXPECT_EQ(freed, 1);
}

TEST(EpochDomain, SynchronizeDrainsEverything) {
  rt::epoch_domain d{2};
  (void)d.register_reader();
  int freed = 0;
  for (int i = 0; i < 5; ++i) d.retire([&]() { ++freed; });
  d.synchronize();
  EXPECT_EQ(freed, 5);
  EXPECT_EQ(d.retired_pending(), 0u);
}

// ---------------------------------------------------- snapshot lifecycle --

struct handle_rig {
  rt::epoch_domain epochs{4};
  rt::snapshot_handle h{epochs};
  std::size_t slot = epochs.register_reader();
};

TEST(SnapshotHandle, InstallSwitchActivates) {
  handle_rig rig;
  EXPECT_FALSE(rig.h.has_active());
  EXPECT_EQ(rig.h.install_standby(rt_snapshot(1)), 1u);
  EXPECT_TRUE(rig.h.has_standby());
  EXPECT_TRUE(rig.h.switch_active());
  EXPECT_TRUE(rig.h.has_active());
  EXPECT_FALSE(rig.h.has_standby());
  rt::epoch_domain::guard g{rig.epochs, rig.slot};
  EXPECT_EQ(rig.h.peek_gen(), 1u);
}

TEST(SnapshotHandle, InstalledVersionHoldsTheProgramNotTheCSource) {
  // The datapath runs the program; the C text is what a module is built
  // from, and ~120 pinned versions would each hold 28 KB of it under
  // cc_adapt.
  handle_rig rig;
  codegen::snapshot snap = rt_snapshot(1);
  ASSERT_FALSE(snap.c_source.empty());
  const quant::quantized_mlp program = snap.program;
  rig.h.install_standby(std::move(snap));
  rig.h.switch_active();
  rt::epoch_domain::guard g{rig.epochs, rig.slot};
  rt::snapshot_version* v = rig.h.pin_active();
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->snap.c_source.empty());
  EXPECT_EQ(v->snap.c_source.capacity(), std::string{}.capacity());
  EXPECT_EQ(v->snap.name, "rt-ffnn");
  EXPECT_EQ(v->snap.version, 1u);
  const std::vector<fp::s64> x(program.input_size(), 300);
  EXPECT_EQ(v->snap.program.infer(x), program.infer(x));
  rig.h.unpin(v);
}

TEST(SnapshotHandle, SwitchWithoutStandbyIsCountedNoop) {
  handle_rig rig;
  EXPECT_FALSE(rig.h.switch_active());
  EXPECT_EQ(rig.h.switch_noops(), 1u);
  EXPECT_EQ(rig.h.switches(), 0u);
  EXPECT_FALSE(rig.h.has_active());

  // With an active but no standby the active must survive the no-op.
  rig.h.install_standby(rt_snapshot(1));
  rig.h.switch_active();
  EXPECT_FALSE(rig.h.switch_active());
  EXPECT_EQ(rig.h.switch_noops(), 2u);
  rt::epoch_domain::guard g{rig.epochs, rig.slot};
  EXPECT_EQ(rig.h.peek_gen(), 1u);
}

TEST(SnapshotHandle, ReplacedStandbyIsRetiredWithoutEverActivating) {
  handle_rig rig;
  rig.h.install_standby(rt_snapshot(1));
  rig.h.install_standby(rt_snapshot(2));  // orphans gen 1
  EXPECT_EQ(rig.h.live_versions(), 2u);
  rig.h.maintain();
  EXPECT_EQ(rig.h.retired(), 1u);
  EXPECT_EQ(rig.h.live_versions(), 1u);
  rig.h.switch_active();
  rt::epoch_domain::guard g{rig.epochs, rig.slot};
  EXPECT_EQ(rig.h.peek_gen(), 2u);
}

TEST(SnapshotHandle, RetirementGatedOnPinDrain) {
  handle_rig rig;
  rig.h.install_standby(rt_snapshot(1));
  rig.h.switch_active();

  // A flow-cache-style pin outlives its epoch guard.
  rt::snapshot_version* v1 = nullptr;
  {
    rt::epoch_domain::guard g{rig.epochs, rig.slot};
    v1 = rig.h.pin_active();
  }
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->gen, 1u);

  rig.h.install_standby(rt_snapshot(2));
  rig.h.switch_active();  // demotes gen 1, drops its ownership pin
  EXPECT_TRUE(v1->demoted.load());
  // The flow pin still holds the version: maintain() must not free it.
  rig.h.maintain();
  EXPECT_EQ(rig.h.retired(), 0u);
  EXPECT_EQ(rig.h.live_versions(), 2u);

  rig.h.unpin(v1);  // last pin: queues the zombie
  rig.h.maintain();
  EXPECT_EQ(rig.h.retired(), 1u);
  EXPECT_EQ(rig.h.live_versions(), 1u);
}

TEST(SnapshotHandle, RetirementGatedOnEpochDrain) {
  handle_rig rig;
  rig.h.install_standby(rt_snapshot(1));
  rig.h.switch_active();
  {
    // A reader sits inside its critical section across the whole demotion:
    // it pinned and unpinned, but its raw pointer is notionally still live
    // until the guard closes, so the free must wait for the grace period.
    rt::epoch_domain::guard g{rig.epochs, rig.slot};
    rt::snapshot_version* v1 = rig.h.pin_active();
    ASSERT_NE(v1, nullptr);
    rig.h.unpin(v1);
    rig.h.install_standby(rt_snapshot(2));
    rig.h.switch_active();  // zero-crossing happens here (ownership drop)
    rig.h.maintain();       // zombie retired against a fresh epoch...
    EXPECT_EQ(rig.h.retired(), 0u);  // ...but not freed under the guard
    EXPECT_EQ(rig.h.live_versions(), 2u);
  }
  rig.h.maintain();  // guard closed: grace elapsed, free runs
  EXPECT_EQ(rig.h.retired(), 1u);
  EXPECT_EQ(rig.h.live_versions(), 1u);
}

// --------------------------------------------- probation hold + rollback --

// Full-reclaim idiom: zombies queued by the first maintain() retire against
// a fresh epoch; synchronize() elapses the grace period; the second
// maintain() runs the frees.
template <typename Rig>
void reclaim_all(Rig& rig) {
  rig.h.maintain();
  rig.epochs.synchronize();
  rig.h.maintain();
}

TEST(SnapshotProbation, OutgoingRetainsPinThroughProbation) {
  handle_rig rig;
  rig.h.set_probation(true);
  rig.h.install_standby(rt_snapshot(1));
  rig.h.switch_active();
  rig.h.install_standby(rt_snapshot(2));
  rig.h.switch_active();  // demotes nothing: gen 1 goes on probation

  const auto st = rig.h.probation();
  EXPECT_TRUE(st.open);
  EXPECT_EQ(st.held_gen, 1u);
  EXPECT_EQ(st.promoted_gen, 2u);
  EXPECT_EQ(st.age_windows, 0u);
  // The hold keeps the ownership pin: no demote flag, nothing reclaimable.
  reclaim_all(rig);
  EXPECT_EQ(rig.h.retired(), 0u);
  EXPECT_EQ(rig.h.live_versions(), 2u);
  rt::epoch_domain::guard g{rig.epochs, rig.slot};
  EXPECT_EQ(rig.h.peek_gen(), 2u);
}

TEST(SnapshotProbation, CleanExpiryRetiresTheHeldVersion) {
  handle_rig rig;
  rig.h.set_probation(true);
  rig.h.install_standby(rt_snapshot(1));
  rig.h.switch_active();
  rig.h.install_standby(rt_snapshot(2));
  rig.h.switch_active();

  // Age the hold one sampler window at a time; it closes exactly at the
  // configured horizon, through the historical demote + retire path.
  EXPECT_FALSE(rig.h.probation_tick(3));
  EXPECT_FALSE(rig.h.probation_tick(3));
  EXPECT_TRUE(rig.h.probation_tick(3));
  EXPECT_FALSE(rig.h.probation().open);
  EXPECT_EQ(rig.h.probation_retires(), 1u);
  reclaim_all(rig);
  EXPECT_EQ(rig.h.retired(), 1u);
  EXPECT_EQ(rig.h.live_versions(), 1u);
  rt::epoch_domain::guard g{rig.epochs, rig.slot};
  EXPECT_EQ(rig.h.peek_gen(), 2u);
}

TEST(SnapshotProbation, RollbackRePromotesWithEpochBumpAndRetiresSuspect) {
  handle_rig rig;
  rig.h.set_probation(true);
  rig.h.install_standby(rt_snapshot(1));
  rig.h.switch_active();
  rig.h.install_standby(rt_snapshot(2));
  rig.h.switch_active();
  const std::uint64_t epoch_before = rig.h.switch_epoch();

  EXPECT_TRUE(rig.h.rollback());
  EXPECT_EQ(rig.h.rollbacks(), 1u);
  EXPECT_FALSE(rig.h.probation().open);  // the hold is consumed
  // Rollback is the same one-pointer-exchange critical section as the
  // forward flip: the switch epoch must bump so every L1 entry stamped
  // under gen 2 falls back to the shard.
  EXPECT_GT(rig.h.switch_epoch(), epoch_before);
  {
    // Readers never pin the regressed version again: gen 2 is demoted and
    // pin_active's pin-then-recheck protocol lands on the re-promoted gen 1.
    rt::epoch_domain::guard g{rig.epochs, rig.slot};
    rt::snapshot_version* v = rig.h.pin_active();
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->gen, 1u);
    rig.h.unpin(v);
  }
  reclaim_all(rig);
  EXPECT_EQ(rig.h.retired(), 1u);  // the regressed gen 2
  EXPECT_EQ(rig.h.live_versions(), 1u);
}

TEST(SnapshotProbation, RollbackAfterExpiryIsCountedNoop) {
  handle_rig rig;
  rig.h.set_probation(true);
  rig.h.install_standby(rt_snapshot(1));
  rig.h.switch_active();
  rig.h.install_standby(rt_snapshot(2));
  rig.h.switch_active();
  EXPECT_TRUE(rig.h.probation_tick(1));  // hold expires cleanly

  EXPECT_FALSE(rig.h.rollback());
  EXPECT_EQ(rig.h.rollback_noops(), 1u);
  EXPECT_EQ(rig.h.rollbacks(), 0u);
  rt::epoch_domain::guard g{rig.epochs, rig.slot};
  EXPECT_EQ(rig.h.peek_gen(), 2u);  // the suspect keeps serving
}

TEST(SnapshotProbation, NewSwitchSupersedesOpenHold) {
  handle_rig rig;
  rig.h.set_probation(true);
  rig.h.install_standby(rt_snapshot(1));
  rig.h.switch_active();
  rig.h.install_standby(rt_snapshot(2));
  rig.h.switch_active();  // hold on gen 1
  rig.h.install_standby(rt_snapshot(3));
  rig.h.switch_active();  // supersedes: gen 1 closes as its expiry would

  EXPECT_EQ(rig.h.probation_retires(), 1u);
  const auto st = rig.h.probation();
  EXPECT_TRUE(st.open);
  EXPECT_EQ(st.held_gen, 2u);
  EXPECT_EQ(st.promoted_gen, 3u);
  // Only the most recent switch is reversible.
  EXPECT_TRUE(rig.h.rollback());
  rt::epoch_domain::guard g{rig.epochs, rig.slot};
  EXPECT_EQ(rig.h.peek_gen(), 2u);
}

TEST(SnapshotProbation, EngineRollbackRoutesPreviousGenAndResetsShadow) {
  rt::engine_config cfg;
  cfg.max_workers = 1;
  cfg.probation_windows = 8;
  rt::datapath_engine e{cfg};
  rt::worker_handle& w = e.register_worker();
  e.install(core::k_default_model, rt_snapshot(1));
  EXPECT_TRUE(e.switch_active());
  e.install(core::k_default_model, rt_snapshot(2, 11));
  EXPECT_TRUE(e.switch_active());
  EXPECT_EQ(e.route(w, 7, 0.0, {}, {}).gen, 2u);

  EXPECT_TRUE(e.try_rollback(core::k_default_model));
  EXPECT_EQ(e.rollbacks(), 1u);
  // A second rollback has no hold to consume.
  EXPECT_FALSE(e.try_rollback(core::k_default_model));
  EXPECT_EQ(e.rollback_noops(), 1u);
  // §3.4 consistency holds across a rollback exactly as across a forward
  // switch: the already-bound flow stays on the (regressed) gen it started
  // on until FIN, while new flows land on the re-promoted version.
  EXPECT_EQ(e.route(w, 7, 0.0, {}, {}).gen, 2u);
  EXPECT_EQ(e.route(w, 8, 0.0, {}, {}).gen, 1u);
  EXPECT_TRUE(e.flow_finished(w, 7));  // FIN unbinds the regressed gen
  // Rollback pauses shadow scoring until the next install re-arms it.
  EXPECT_EQ(e.shadow_evidence(core::k_default_model).samples, 0u);
  e.cache().clear(e.snapshots());  // drop the flows' pins on both gens
  e.maintain();
  e.epochs().synchronize();
  e.maintain();
  EXPECT_EQ(e.versions_live(), 1u);
}

// --------------------------------------------- shadow evidence gen-binding --

TEST(RtShadowGenBinding, TaggedRecordDropsGenMismatch) {
  core::shadow_scorer s;
  s.bind(7);
  s.record(0.25, 7);  // matches the bound candidate: counted
  s.record(0.50, 6);  // a replaced candidate's in-flight sample: dropped
  s.record(0.75, 0);  // untagged caller on the tagged path: dropped
  EXPECT_EQ(s.samples(), 1u);
  EXPECT_DOUBLE_EQ(s.mean_divergence(), 0.25);
  EXPECT_DOUBLE_EQ(s.max_divergence(), 0.25);
  EXPECT_EQ(s.gen_mismatch_drops(), 2u);
}

TEST(RtShadowGenBinding, ReplaceMidGuardDropsTheStaleSample) {
  // The misattribution race, scripted: a worker peeks candidate A inside
  // its epoch guard and captures A's gen before inferring; while it
  // computes, the writer replaces A with B (reset + re-bind).  A's
  // divergence must not land on B's fresh accumulator.
  core::shadow_scorer s;
  s.bind(1);                              // install_standby(A)
  const std::uint64_t captured = s.bound_gen();  // worker: gen before infer
  s.reset();                              // writer: install_standby(B)...
  s.bind(2);                              // ...re-arms the evidence
  s.record(0.9, captured);                // worker lands late: dropped
  EXPECT_EQ(s.samples(), 0u);
  EXPECT_EQ(s.gen_mismatch_drops(), 1u);
  s.record(0.01, 2);                      // B's own evidence accumulates
  EXPECT_EQ(s.samples(), 1u);
  // The drop counter is cumulative across reset(): it is an observability
  // signal, not per-candidate evidence.
  s.reset();
  EXPECT_EQ(s.gen_mismatch_drops(), 1u);
  EXPECT_EQ(s.bound_gen(), 0u);           // unbound: everything drops
  s.record(0.5, 2);
  EXPECT_EQ(s.samples(), 0u);
  EXPECT_EQ(s.gen_mismatch_drops(), 2u);
}

TEST(RtShadowGenBinding, EngineCleanShadowPathCountsNoDrops) {
  rt::engine_config cfg;
  cfg.max_workers = 1;
  cfg.shadow.sample_rate = 1.0;  // every flow shadow-scored
  rt::datapath_engine e{cfg};
  rt::worker_handle& w = e.register_worker();
  e.install(core::k_default_model, rt_snapshot(1));
  ASSERT_TRUE(e.switch_active());
  e.install(core::k_default_model, rt_snapshot(2, 11));  // standby, bound

  std::vector<fp::s64> in(8, 100);
  std::vector<fp::s64> out(1);
  for (int i = 0; i < 16; ++i) e.route(w, 7 + i, i * 0.01, in, out);
  // Uncontended install/score interleaving: every sample carries the bound
  // gen, so the evidence accumulates and nothing drops.
  EXPECT_GT(e.shadow_evidence(core::k_default_model).samples, 0u);
  EXPECT_EQ(e.shadow_gen_drops(), 0u);
}

TEST(SnapshotProbation, CloseProbationDrainsHoldForShutdown) {
  rt::engine_config cfg;
  cfg.max_workers = 1;
  cfg.probation_windows = 1000;  // never expires on its own here
  rt::datapath_engine e{cfg};
  e.install(core::k_default_model, rt_snapshot(1));
  EXPECT_TRUE(e.switch_active());
  e.install(core::k_default_model, rt_snapshot(2, 11));
  EXPECT_TRUE(e.switch_active());
  EXPECT_EQ(e.close_probation(), 1u);
  EXPECT_EQ(e.close_probation(), 0u);  // idempotent
  e.maintain();
  e.epochs().synchronize();
  e.maintain();
  EXPECT_EQ(e.versions_live(), 1u);  // no leak verdict at drain time
}

// ------------------------------------------------------- sharded cache --

TEST(ShardedFlowCache, ShardCountRoundsToPowerOfTwoAndCoversFlows) {
  rt::epoch_domain d{1};
  rt::sharded_flow_cache c{5, 30.0, d};
  EXPECT_EQ(c.shard_count(), 8u);
  EXPECT_EQ(c.stats().capacity, 8u * 64u);  // every shard starts at 64 slots
  for (netsim::flow_id_t f = 0; f < 10000; ++f) {
    ASSERT_LT(c.shard_of(f), c.shard_count());
  }
}

TEST(ShardedFlowCache, InsertTransfersPinAndLostRaceReleasesIt) {
  handle_rig rig;
  rt::sharded_flow_cache c{4, 64, 30.0, rig.epochs};
  rig.h.install_standby(rt_snapshot(1));
  rig.h.switch_active();

  rt::epoch_domain::guard g{rig.epochs, rig.slot};
  rt::snapshot_version* v1 = rig.h.pin_active();
  ASSERT_NE(v1, nullptr);
  const auto pins_before = v1->pins.load();
  // The miss path: the caller's pin transfers into the entry.
  EXPECT_EQ(c.insert(5, v1, 0.0, 0, rig.h), v1);
  EXPECT_EQ(v1->pins.load(), pins_before);  // transferred, not duplicated
  EXPECT_EQ(c.lookup(5, 0.1), v1);

  // Lost race on the same flow with a *newer* version: the resident entry
  // wins (flow consistency) and the loser's pin is released.
  rig.h.install_standby(rt_snapshot(2));
  rig.h.switch_active();
  rt::snapshot_version* v2 = rig.h.pin_active();
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(v2->gen, 2u);
  const auto v2_pins_before = v2->pins.load();
  rt::snapshot_version* resident = c.insert(5, v2, 0.2, 0, rig.h);
  EXPECT_EQ(resident, v1);
  EXPECT_EQ(resident->gen, 1u);
  // The losing pin was released inside insert(); only v2's ownership pin
  // remains, so no unpin is owed here.
  EXPECT_EQ(v2->pins.load(), v2_pins_before - 1);

  c.clear(rig.h);
}

TEST(ShardedFlowCache, FinAndIdleExpiryReleaseEachPinExactlyOnce) {
  handle_rig rig;
  rt::sharded_flow_cache c{4, 64, 30.0, rig.epochs};
  rig.h.install_standby(rt_snapshot(1));
  rig.h.switch_active();

  {
    rt::epoch_domain::guard g{rig.epochs, rig.slot};
    for (netsim::flow_id_t f = 0; f < 8; ++f) {
      rt::snapshot_version* v = rig.h.pin_active();
      ASSERT_NE(v, nullptr);
      EXPECT_EQ(c.insert(f, v, 0.0, 0, rig.h), v);
    }
  }
  EXPECT_EQ(c.stats().size, 8u);

  // FIN drops exactly one pin; a duplicate FIN (the race where the idle
  // sweep and the FIN both target the entry) finds nothing and must not
  // double-release.
  EXPECT_TRUE(c.erase(3, rig.h));
  EXPECT_FALSE(c.erase(3, rig.h));
  EXPECT_EQ(c.stats().size, 7u);

  // Idle expiry drains the rest; a second sweep is a no-op.
  EXPECT_EQ(c.expire_idle(100.0, rig.h), 7u);
  EXPECT_EQ(c.expire_idle(100.0, rig.h), 0u);
  EXPECT_EQ(c.stats().size, 0u);

  // Every pin accounted for: demote the version and it retires cleanly.
  rig.h.install_standby(rt_snapshot(2));
  rig.h.switch_active();
  rig.h.maintain();
  EXPECT_EQ(rig.h.retired(), 1u);
  EXPECT_EQ(rig.h.live_versions(), 1u);
}

TEST(ShardedFlowCache, InsertSweepEvictsIdleNeighborsAndReleasesPins) {
  handle_rig rig;
  // One shard: the sweep sees every entry.
  rt::sharded_flow_cache c{1, 64, 30.0, rig.epochs};
  rig.h.install_standby(rt_snapshot(1));
  rig.h.switch_active();
  {
    rt::epoch_domain::guard g{rig.epochs, rig.slot};
    for (netsim::flow_id_t f = 0; f < 16; ++f) {
      c.insert(f, rig.h.pin_active(), 0.0, 0, rig.h);
    }
  }
  // Lookups are lock-free and never evict; the incremental sweep rides the
  // insert (miss/churn) path.  Churn short-lived flows far past the idle
  // timeout: their sweeps alone must drain the 16 stale entries.
  for (int i = 0; i < 200; ++i) {
    rt::epoch_domain::guard g{rig.epochs, rig.slot};
    c.insert(1000 + i, rig.h.pin_active(), 100.0 + i, 4, rig.h);
    c.erase(1000 + i, rig.h);
  }
  EXPECT_EQ(c.stats().size, 0u);
  EXPECT_GE(c.stats().evictions, 16u);

  // Every evicted/erased pin was released exactly once: demoting gen 1
  // leaves nothing to hold it and it retires on the next maintain.
  rig.h.install_standby(rt_snapshot(2));
  rig.h.switch_active();
  rig.h.maintain();
  EXPECT_EQ(rig.h.retired(), 1u);
  EXPECT_EQ(rig.h.live_versions(), 1u);
}

TEST(ShardedFlowCache, LockFreeLookupSurvivesConcurrentChurn) {
  // Seqlock read path vs writer churn (insert/erase/expire/rehash) on real
  // threads: every hit dereferenced under the reader's epoch guard must see
  // a sane, pinned version.  Bounded by iteration counts (no wall time), so
  // it cannot flake on load; TSan tier-1 runs it.
  handle_rig rig;
  const std::size_t reader_slot = rig.epochs.register_reader();
  rt::sharded_flow_cache c{2, 16, 30.0, rig.epochs};  // small: rehashes
  rig.h.install_standby(rt_snapshot(1));
  rig.h.switch_active();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::thread reader{[&]() {
    std::uint64_t iter = 0;
    while (!stop.load(std::memory_order_acquire)) {
      rt::epoch_domain::guard g{rig.epochs, reader_slot};
      rt::snapshot_version* v =
          c.lookup(static_cast<netsim::flow_id_t>(iter++ % 64), 0.5);
      if (v != nullptr && v->gen != 1) bad.fetch_add(1);
    }
  }};
  for (int round = 0; round < 400; ++round) {
    rt::epoch_domain::guard g{rig.epochs, rig.slot};
    for (netsim::flow_id_t f = 0; f < 64; ++f) {
      c.insert(f, rig.h.pin_active(), round * 1.0, 1, rig.h);
    }
    if (round % 3 == 0) {
      c.expire_idle(round + 100.0, rig.h);  // tombstone storm
    } else {
      for (netsim::flow_id_t f = 0; f < 64; f += 2) c.erase(f, rig.h);
    }
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(c.stats().rehashes, 0u);
  c.clear(rig.h);
  rig.epochs.synchronize();
}

// --------------------------------------------------------------- engine --

TEST(RtEngine, RoutePinsFlowsAcrossSwitchUntilFin) {
  rt::engine_config cfg;
  cfg.shards = 4;
  cfg.max_workers = 2;
  rt::datapath_engine e{cfg};
  rt::worker_handle& w = e.register_worker();

  // Nothing active: route serves nothing and caches nothing.
  auto r = e.route(w, 1, 0.0, {}, {});
  EXPECT_EQ(r.gen, 0u);
  EXPECT_FALSE(r.served);
  EXPECT_EQ(e.cached_flows(), 0u);

  e.install(rt_snapshot(1));
  EXPECT_TRUE(e.switch_active());
  r = e.route(w, 1, 0.0, {}, {});
  EXPECT_EQ(r.gen, 1u);
  EXPECT_FALSE(r.hit);
  r = e.route(w, 1, 0.1, {}, {});
  EXPECT_EQ(r.gen, 1u);
  EXPECT_TRUE(r.hit);

  // Switch generations: the cached flow stays pinned to gen 1 (§3.4 flow
  // consistency), new flows pick up gen 2.
  e.install(rt_snapshot(2));
  EXPECT_TRUE(e.switch_active());
  r = e.route(w, 1, 0.2, {}, {});
  EXPECT_EQ(r.gen, 1u);
  EXPECT_TRUE(r.hit);
  r = e.route(w, 2, 0.2, {}, {});
  EXPECT_EQ(r.gen, 2u);

  // FIN re-pins the flow to the current active on its next packet, and the
  // drained gen-1 version retires.
  EXPECT_TRUE(e.flow_finished(w, 1));
  r = e.route(w, 1, 0.3, {}, {});
  EXPECT_EQ(r.gen, 2u);
  EXPECT_FALSE(r.hit);
  e.maintain();
  EXPECT_EQ(e.versions_retired(), 1u);
  EXPECT_EQ(e.versions_live(), 1u);
  EXPECT_EQ(e.switches(), 2u);
  EXPECT_EQ(w.routes(), 6u);
  // Route 2 was an L1 hit (no flip in between); route 3 followed a switch,
  // so the L1 entry was epoch-stale and the hit came from the shard.
  EXPECT_EQ(w.l1_hits(), 1u);
  EXPECT_EQ(w.cache_hits(), 1u);
}

TEST(RtEngine, RouteRunsCompiledInference) {
  rt::engine_config cfg;
  cfg.max_workers = 2;
  rt::datapath_engine e{cfg};
  rt::worker_handle& w = e.register_worker();
  e.install(rt_snapshot(1));
  e.switch_active();

  std::vector<fp::s64> input(8, 100);
  std::vector<fp::s64> out_a(1), out_b(1);
  auto r = e.route(w, 42, 0.0, input, out_a);
  EXPECT_TRUE(r.served);
  EXPECT_EQ(w.inferences(), 1u);
  // Same program, same input, same flow: bitwise-identical output.
  r = e.route(w, 42, 0.1, input, out_b);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(out_a[0], out_b[0]);
}

TEST(RtEngine, SwitchWithoutStandbyIsNoopAndIdleExpiryDrains) {
  rt::engine_config cfg;
  cfg.shards = 2;
  cfg.idle_timeout = 1.0;
  cfg.max_workers = 2;
  rt::datapath_engine e{cfg};
  rt::worker_handle& w = e.register_worker();
  EXPECT_FALSE(e.switch_active());
  EXPECT_EQ(e.switch_noops(), 1u);

  e.install(rt_snapshot(1));
  e.switch_active();
  for (netsim::flow_id_t f = 0; f < 32; ++f) e.route(w, f, 0.0, {}, {});
  EXPECT_EQ(e.cached_flows(), 32u);
  EXPECT_EQ(e.expire_idle(100.0), 32u);
  EXPECT_EQ(e.cached_flows(), 0u);
}

TEST(RtEngine, ChurnWithoutMaintainKeepsRetiredArraysBounded) {
  // Every FIN leaves a tombstone, so a shard under route/FIN churn scrubs
  // its slot array every few dozen inserts and retires the old one.
  // Nothing here calls maintain(): the insert path has to free them.
  rt::engine_config cfg;
  cfg.shards = 1;
  cfg.max_workers = 1;
  rt::datapath_engine e{cfg};
  rt::worker_handle& w = e.register_worker();
  e.install(rt_snapshot(1));
  e.switch_active();
  std::size_t fins = 0;
  for (netsim::flow_id_t f = 1; f <= 16384; ++f) {
    e.route(w, f, 0.0, {}, {});
    fins += e.flow_finished(w, f) ? 1 : 0;
  }
  EXPECT_EQ(fins, 16384u);
  EXPECT_GT(e.cache().stats().rehashes, 100u);
  EXPECT_LE(e.epochs().retired_pending(), 1u);
}

TEST(RtEngine, DefaultCacheStartsSmallAndGrowsWithoutLosingBindings) {
  rt::engine_config cfg;
  rt::datapath_engine e{cfg};
  // 64 slots per shard before the first route, not a pre-sized table.
  EXPECT_EQ(e.cache().stats().capacity,
            rt::datapath_engine::resolved_shards(cfg) * 64);
  rt::worker_handle& w = e.register_worker();
  e.install(rt_snapshot(1));
  e.switch_active();
  constexpr netsim::flow_id_t k_flows = 8192;
  for (netsim::flow_id_t f = 1; f <= k_flows; ++f) {
    ASSERT_FALSE(e.route(w, f, 0.0, {}, {}).hit) << "flow " << f;
  }
  EXPECT_EQ(e.cached_flows(), k_flows);
  EXPECT_GT(e.cache().stats().rehashes, 0u);
  // After a switch, a binding lost by a rehash would re-pin gen 2.
  e.install(rt_snapshot(2));
  e.switch_active();
  for (netsim::flow_id_t f = 1; f <= k_flows; ++f) {
    const auto r = e.route(w, f, 0.1, {}, {});
    ASSERT_TRUE(r.hit) << "flow " << f;
    ASSERT_EQ(r.gen, 1u) << "flow " << f;
  }
}

TEST(RtEngine, L1ServedFlowKeepsItsBindingThroughIdleSweeps) {
  // One shard, a 1 s idle timeout: flow 7 sends a packet every 0.5 s while
  // 8 short flows miss and FIN at every step, so the insert-path sweep laps
  // the shard again and again.  The L1 serves flow 7, and its L2 stamp must
  // still move: a refresh every 64th L1 hit left it ~32 s stale, the sweep
  // evicted the live flow, and after the switch at t = 46.5 s its next
  // packet pinned gen 2 without a FIN.
  rt::engine_config cfg;
  cfg.shards = 1;
  cfg.idle_timeout = 1.0;
  cfg.max_workers = 1;
  rt::datapath_engine e{cfg};
  rt::worker_handle& w = e.register_worker();
  e.install(rt_snapshot(1));
  e.switch_active();
  EXPECT_EQ(e.route(w, 7, 0.0, {}, {}).gen, 1u);
  netsim::flow_id_t churn = 1000;
  for (int step = 1; step <= 200; ++step) {
    const double now = 0.5 * step;
    for (int k = 0; k < 8; ++k, ++churn) {
      e.route(w, churn, now, {}, {});
      e.flow_finished(w, churn);
    }
    const auto r = e.route(w, 7, now, {}, {});
    ASSERT_TRUE(r.hit) << "t = " << now;
    ASSERT_EQ(r.gen, 1u) << "t = " << now;
    if (step == 93) {  // t = 46.5 s
      e.install(rt_snapshot(2));
      e.switch_active();
    }
  }
}

TEST(RtEngine, FlowsUnderIdleTimeoutApartAreNeverEvicted) {
  // Flow 7 sends a packet every 0.9 x idle_timeout.  Flow 8 sends bursts
  // the L1 serves (packets idle_timeout / 100 apart for half a timeout),
  // with 0.9 x idle_timeout of silence after each.  Short flows miss and
  // FIN at every tick and expire_idle runs each tick, so both sweeps see
  // every slot.  Neither flow may lose its gen-1 binding across the switch;
  // once both fall silent, 2 x idle_timeout later both are gone.
  rt::engine_config cfg;
  cfg.shards = 1;
  cfg.idle_timeout = 1.0;
  cfg.max_workers = 1;
  rt::datapath_engine e{cfg};
  rt::worker_handle& w = e.register_worker();
  e.install(rt_snapshot(1));
  e.switch_active();
  netsim::flow_id_t churn = 1000;
  const auto sweep = [&](double now) {
    for (int k = 0; k < 4; ++k, ++churn) {
      e.route(w, churn, now, {}, {});
      e.flow_finished(w, churn);
    }
    e.expire_idle(now);
  };
  const auto live = [&](netsim::flow_id_t flow, double now) {
    const auto r = e.route(w, flow, now, {}, {});
    EXPECT_EQ(r.gen, 1u) << "flow " << flow << ", t = " << now;
    return r.hit;
  };
  // Ticks of idle_timeout / 100: flow 7 every 90 ticks, flow 8 on ticks
  // 0..50 of every 140, so 90 silent ticks follow each burst.
  constexpr int k_ticks = 4000;
  std::size_t misses = 0;
  for (int tick = 0; tick <= k_ticks; ++tick) {
    const double now = tick * 0.01;
    sweep(now);
    if (tick % 90 == 0 && !live(7, now)) ++misses;
    if (tick % 140 <= 50 && !live(8, now)) ++misses;
    if (tick == k_ticks / 2) {
      e.install(rt_snapshot(2));
      e.switch_active();
    }
  }
  EXPECT_EQ(misses, 2u);  // each flow's first packet
  const double silent_from = k_ticks * 0.01;
  for (int tick = 1; tick <= 200; ++tick) sweep(silent_from + tick * 0.01);
  EXPECT_EQ(e.cached_flows(), 0u);
  EXPECT_EQ(e.route(w, 7, silent_from + 2.0, {}, {}).gen, 2u);
}

TEST(RtEngine, StampLagOfBothCacheLevelsStaysInsideEvictionMargin) {
  // idle_timeout 64 s: stamps refresh once 1 s old, and the sweeps evict
  // entries idle for over 66 s.  The longest lag: worker A's miss stamps
  // flow 7 at 0 s; worker B's L2 hit at 0.9 s leaves the stamp (under 1 s
  // old) and fills B's L1, which serves the packet at 1.89 s without
  // reaching the L2.  The next packet, 63.9 s later, is 65.79 s after the
  // stamp, and the flow must still be there.
  rt::engine_config cfg;
  cfg.shards = 1;
  cfg.idle_timeout = 64.0;
  cfg.max_workers = 2;
  rt::datapath_engine e{cfg};
  rt::worker_handle& wa = e.register_worker();
  rt::worker_handle& wb = e.register_worker();
  e.install(rt_snapshot(1));
  e.switch_active();
  EXPECT_FALSE(e.route(wa, 7, 0.0, {}, {}).hit);
  EXPECT_TRUE(e.route(wb, 7, 0.9, {}, {}).hit);
  EXPECT_TRUE(e.route(wb, 7, 1.89, {}, {}).hit);
  EXPECT_EQ(wb.l1_hits(), 1u);
  const double next = 1.89 + 63.9;
  EXPECT_EQ(e.expire_idle(next), 0u);
  EXPECT_TRUE(e.route(wb, 7, next, {}, {}).hit);
  EXPECT_EQ(e.expire_idle(next + 128.0), 1u);  // idle 2 x idle_timeout
}

TEST(RtEngineConfig, ShardsDeriveFromWorkerBudget) {
  // shards == 0 derives next_pow2(2 * max_workers); explicit values round
  // up to a power of two and ignore the worker budget.
  rt::engine_config cfg;
  cfg.max_workers = 5;
  EXPECT_EQ(rt::datapath_engine::resolved_shards(cfg), 16u);
  cfg.max_workers = 4;
  EXPECT_EQ(rt::datapath_engine::resolved_shards(cfg), 8u);
  cfg.max_workers = 1;
  EXPECT_EQ(rt::datapath_engine::resolved_shards(cfg), 2u);
  cfg.max_workers = 0;  // degenerate: treated as one worker
  EXPECT_EQ(rt::datapath_engine::resolved_shards(cfg), 2u);
  cfg.max_workers = 64;
  cfg.shards = 5;
  EXPECT_EQ(rt::datapath_engine::resolved_shards(cfg), 8u);
  cfg.shards = 1;
  EXPECT_EQ(rt::datapath_engine::resolved_shards(cfg), 1u);

  // A built engine reflects the resolved policy back into config().
  rt::engine_config auto_cfg;
  auto_cfg.max_workers = 3;
  auto_cfg.l1_slots = 48;  // rounds up too
  rt::datapath_engine e{auto_cfg};
  EXPECT_EQ(e.config().shards, 8u);
  EXPECT_EQ(e.cache().shard_count(), 8u);
  EXPECT_EQ(e.config().l1_slots, 64u);
  EXPECT_EQ(e.register_worker().l1_capacity(), 64u);
}

TEST(RtEngine, L1DisabledFallsBackToShardPath) {
  rt::engine_config cfg;
  cfg.max_workers = 2;
  cfg.l1_slots = 0;
  rt::datapath_engine e{cfg};
  rt::worker_handle& w = e.register_worker();
  EXPECT_EQ(w.l1_capacity(), 0u);
  e.install(rt_snapshot(1));
  e.switch_active();
  EXPECT_FALSE(e.route(w, 7, 0.0, {}, {}).hit);
  EXPECT_TRUE(e.route(w, 7, 0.1, {}, {}).hit);
  EXPECT_EQ(w.l1_hits(), 0u);
  EXPECT_EQ(w.cache_hits(), 1u);
}

TEST(RtEngine, OneSlotL1KeepsEveryFlowOnItsGenerationAcrossSwitch) {
  // One L1 slot takes zero hash bits: every flow shares slot 0, and the
  // index must not come from shifting the 64-bit hash by 64.
  rt::engine_config cfg;
  cfg.max_workers = 2;
  cfg.l1_slots = 1;
  rt::datapath_engine e{cfg};
  rt::worker_handle& w = e.register_worker();
  EXPECT_EQ(w.l1_capacity(), 1u);
  constexpr netsim::flow_id_t flows = 64;
  e.install(rt_snapshot(1));
  e.switch_active();
  for (netsim::flow_id_t f = 1; f <= flows; ++f) {
    EXPECT_EQ(e.route(w, f, 0.0, {}, {}).gen, 1u) << f;
  }
  e.install(rt_snapshot(2));
  e.switch_active();
  // Old flows keep gen 1 and new flows bind gen 2, interleaved so that
  // each route evicts the other flow from the one slot; the second route
  // of a flow in a row is an L1 hit.
  for (netsim::flow_id_t f = 1; f <= flows; ++f) {
    for (int rep = 0; rep < 2; ++rep) {
      EXPECT_EQ(e.route(w, f, 0.1, {}, {}).gen, 1u) << f;
      EXPECT_EQ(e.route(w, flows + f, 0.1, {}, {}).gen, 2u) << f;
    }
    EXPECT_EQ(e.route(w, flows + f, 0.1, {}, {}).gen, 2u) << f;
  }
  EXPECT_EQ(w.l1_hits(), flows);
  // Each FIN re-pins its flow to gen 2; the last drains gen 1.
  for (netsim::flow_id_t f = 1; f <= flows; ++f) {
    EXPECT_TRUE(e.flow_finished(w, f));
    EXPECT_EQ(e.route(w, f, 0.2, {}, {}).gen, 2u) << f;
  }
  e.maintain();
  EXPECT_EQ(e.versions_retired(), 1u);
  EXPECT_EQ(e.versions_live(), 1u);
}

// ------------------------------------------- L1 invalidation (scripted) --
//
// Deterministic 2-thread scripts for the two ways a worker's L1 binding can
// go stale.  Both run in the ordinary ctest tier and are exercised under
// ASan and TSan in CI: if the switch-epoch check ever failed to reject a
// stale entry, the route would dereference a freed snapshot_version and
// ASan would flag the use-after-free.

/// Run `fn` on a fresh thread and join — the steps really execute on a
/// different thread (distinct epoch slot, TSan-visible), while the script
/// stays sequential and deterministic.
template <typename Fn>
void on_thread(Fn&& fn) {
  std::thread t{std::forward<Fn>(fn)};
  t.join();
}

TEST(RtL1Invalidation, SwitchRejectsStaleGenerationAcrossWorkers) {
  rt::engine_config cfg;
  cfg.max_workers = 3;
  rt::datapath_engine e{cfg};
  rt::worker_handle& wa = e.register_worker();
  rt::worker_handle& wb = e.register_worker();
  e.install(rt_snapshot(1));
  e.switch_active();

  // Worker A owns flow 7 and routes it; worker B routes it once too (a
  // migration), filling B's L1 with the gen-1 binding.
  EXPECT_EQ(e.route(wa, 7, 0.0, {}, {}).gen, 1u);
  on_thread([&]() {
    const auto r = e.route(wb, 7, 0.1, {}, {});
    EXPECT_EQ(r.gen, 1u);
    EXPECT_TRUE(r.hit);
  });

  // A FINs the flow (its own L1 entry is dropped, the shard pin released),
  // then the writer installs gen 2 and flips.  gen 1 is now demoted with no
  // pins; after maintain + grace it is freed.
  EXPECT_TRUE(e.flow_finished(wa, 7));
  e.install(rt_snapshot(2));
  EXPECT_TRUE(e.switch_active());
  e.maintain();
  e.epochs().synchronize();
  e.maintain();
  EXPECT_EQ(e.versions_retired(), 1u);
  EXPECT_EQ(e.versions_live(), 1u);

  // B's L1 still holds the gen-1 pointer, but the flip bumped the switch
  // epoch: the entry must be rejected and the route re-pins gen 2.  Were
  // the epoch check broken, this would serve (and dereference) freed gen 1.
  on_thread([&]() {
    const auto r = e.route(wb, 7, 0.2, {}, {});
    EXPECT_EQ(r.gen, 2u);
    EXPECT_FALSE(r.hit);
  });
}

TEST(RtL1Invalidation, FinDrainBumpsEpochBeforeFreeingDemotedVersion) {
  // The subtler path: the L1 entry is refreshed *after* the flip (so its
  // epoch stamp is current), the bound version is already demoted, and the
  // binding dies later via a cross-thread FIN with no further switch.  The
  // zero-crossing unpin must bump the switch epoch before queueing the
  // zombie, or A's next route would serve the freed version.
  rt::engine_config cfg;
  cfg.max_workers = 3;
  rt::datapath_engine e{cfg};
  rt::worker_handle& wa = e.register_worker();
  rt::worker_handle& wb = e.register_worker();
  e.install(rt_snapshot(1));
  e.switch_active();

  EXPECT_EQ(e.route(wa, 9, 0.0, {}, {}).gen, 1u);
  e.install(rt_snapshot(2));
  EXPECT_TRUE(e.switch_active());  // demotes gen 1; flow 9 still pins it

  // Post-flip route: A's L1 is stale (flip bump), the shard still serves
  // gen 1 (flow consistency), and A's L1 is refreshed with a CURRENT epoch
  // stamp bound to the demoted version.
  auto r = e.route(wa, 9, 0.1, {}, {});
  EXPECT_EQ(r.gen, 1u);
  EXPECT_TRUE(r.hit);

  // B FINs the flow from another thread: the shard entry's pin was the last
  // one, so gen 1 zombifies — bumping the switch epoch — and after the
  // grace period it is freed for real.
  on_thread([&]() { EXPECT_TRUE(e.flow_finished(wb, 9)); });
  e.maintain();
  e.epochs().synchronize();
  e.maintain();
  EXPECT_EQ(e.versions_live(), 1u);

  // A's L1 entry matches flow and — without the FIN-drain bump — would
  // still match the epoch; serving it would dereference freed memory.  The
  // bump forces the miss and the flow re-pins gen 2.
  r = e.route(wa, 9, 0.2, {}, {});
  EXPECT_EQ(r.gen, 2u);
  EXPECT_FALSE(r.hit);
}

// -------------------------------------------------------- batched route --

TEST(RtEngine, BatchedRouteMatchesScalarBitForBit) {
  rt::engine_config cfg;
  cfg.max_workers = 3;
  rt::datapath_engine e{cfg};
  rt::worker_handle& wbatch = e.register_worker();
  rt::worker_handle& wscalar = e.register_worker();
  e.install(rt_snapshot(1));
  e.switch_active();

  constexpr std::size_t k = 6;
  rng g{0x6a7c};
  std::vector<netsim::flow_id_t> flows{11, 12, 13, 11, 14, 12};  // dups too
  std::vector<fp::s64> inputs(k * 8);
  for (auto& v : inputs) v = g.uniform_int(-900, 900);
  std::vector<fp::s64> outs(k, -1);
  std::vector<rt::route_result> results(k);
  EXPECT_EQ(e.route_batch(wbatch, flows, 0.0, inputs, outs, results), k);
  EXPECT_EQ(wbatch.batches(), 1u);
  EXPECT_EQ(wbatch.routes(), k);
  EXPECT_EQ(wbatch.inferences(), k);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_TRUE(results[i].served) << i;
    EXPECT_EQ(results[i].gen, 1u) << i;
    // The scalar path on a different worker must produce bit-identical
    // output for the same flow+input.
    std::vector<fp::s64> one(1, -2);
    const auto r = e.route(
        wscalar, flows[i], 0.1,
        std::span<const fp::s64>{inputs}.subspan(i * 8, 8), one);
    EXPECT_TRUE(r.served);
    EXPECT_EQ(one[0], outs[i]) << i;
  }

  // Second identical batch: everything L1-hits and still serves.
  const auto l1_before = wbatch.l1_hits();
  EXPECT_EQ(e.route_batch(wbatch, flows, 0.2, inputs, outs, results), k);
  EXPECT_GT(wbatch.l1_hits(), l1_before);
  for (std::size_t i = 0; i < k; ++i) EXPECT_TRUE(results[i].hit) << i;
}

TEST(RtEngine, BatchedRouteSpansGenerationsAndRoutesWithoutInfer) {
  rt::engine_config cfg;
  cfg.max_workers = 2;
  rt::datapath_engine e{cfg};
  rt::worker_handle& w = e.register_worker();
  e.install(rt_snapshot(1));
  e.switch_active();
  EXPECT_EQ(e.route(w, 21, 0.0, {}, {}).gen, 1u);  // pin flow 21 to gen 1

  e.install(rt_snapshot(2));
  EXPECT_TRUE(e.switch_active());

  // Mixed-generation batch: flow 21 must stay on gen 1 (§3.4) while the new
  // flows pick up gen 2 — two same-version runs, both served.
  std::vector<netsim::flow_id_t> flows{21, 31, 32, 21};
  std::vector<fp::s64> inputs(4 * 8, 250);
  std::vector<fp::s64> outs(4, -1);
  std::vector<rt::route_result> results(4);
  EXPECT_EQ(e.route_batch(w, flows, 0.1, inputs, outs, results), 4u);
  EXPECT_EQ(results[0].gen, 1u);
  EXPECT_TRUE(results[0].hit);
  EXPECT_EQ(results[1].gen, 2u);
  EXPECT_FALSE(results[1].hit);
  EXPECT_EQ(results[2].gen, 2u);
  EXPECT_EQ(results[3].gen, 1u);
  EXPECT_TRUE(results[3].hit);

  // Empty data spans: routes (gens/hits filled) but serves nothing — the
  // batch analogue of the scalar tests' route-without-infer idiom.
  EXPECT_EQ(e.route_batch(w, flows, 0.2, {}, {}, results), 0u);
  EXPECT_EQ(results[0].gen, 1u);
  EXPECT_FALSE(results[0].served);
  EXPECT_EQ(results[1].gen, 2u);

  // An empty batch is a no-op.
  EXPECT_EQ(e.route_batch(w, {}, 0.3, {}, {}, results), 0u);
}

// Deterministic 2-thread interleaving smoke for the normal ctest tier: one
// writer performing a fixed number of install+switch+maintain cycles against
// one routing thread checking the flow-consistency invariant.  Bounded by
// iteration counts, not wall time, so it cannot hang or flake on load.
TEST(RtEngine, TwoThreadInterleavingSmoke) {
  rt::engine_config cfg;
  cfg.shards = 4;
  cfg.idle_timeout = 0.5;
  cfg.max_workers = 2;
  rt::datapath_engine e{cfg};
  e.install(rt_snapshot(1));
  e.switch_active();
  rt::worker_handle& w = e.register_worker();

  constexpr int k_switch_cycles = 150;
  std::atomic<bool> stop{false};
  std::thread writer{[&]() {
    for (int i = 0; i < k_switch_cycles; ++i) {
      e.install(rt_snapshot(2 + i, 9 + (i % 3)));
      e.switch_active();
      e.maintain();
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
  }};

  constexpr std::size_t k_flows = 64;
  std::vector<std::uint64_t> expected(k_flows, 0);
  std::uint64_t violations = 0;
  rng g{0x2b1e};
  double now = 0.0;
  while (!stop.load(std::memory_order_acquire)) {
    now += 1e-4;
    const auto idx = static_cast<std::size_t>(
        g.uniform_int(0, static_cast<std::int64_t>(k_flows) - 1));
    const auto flow = static_cast<netsim::flow_id_t>(1000 + idx);
    const auto r = e.route(w, flow, now, {}, {});
    if (r.gen != 0) {
      // The invariant: a hit returns exactly the generation pinned at this
      // flow's last miss.
      if (r.hit && r.gen != expected[idx]) ++violations;
      expected[idx] = r.gen;
    }
    if (g.uniform() < 0.05) {
      e.flow_finished(w, flow);
      expected[idx] = 0;
    }
  }
  writer.join();
  EXPECT_EQ(violations, 0u);
  EXPECT_EQ(e.switches(), 1u + k_switch_cycles);

  // Drain: after FINning everything and a full grace period, only the
  // final active generation may remain alive.
  e.cache().clear(e.snapshots());
  e.maintain();
  e.epochs().synchronize();
  e.maintain();
  EXPECT_LE(e.versions_live(), 2u);
  EXPECT_EQ(e.versions_live() + e.versions_retired(),
            static_cast<std::uint64_t>(1 + k_switch_cycles));
}

// ---------------------------------------------------- latency histogram --

TEST(RtLatencyHistogram, BucketIndexFloorAndWidthRoundTrip) {
  using h = metrics::latency_histogram;
  EXPECT_EQ(h::bucket_index(0), 0u);
  EXPECT_EQ(h::bucket_index(1), 1u);
  for (std::size_t i = 2; i < h::k_buckets; ++i) {
    const std::uint64_t lo = h::bucket_floor(i);
    const std::uint64_t w = h::bucket_width(i);
    EXPECT_EQ(h::bucket_index(lo), i) << "floor of bucket " << i;
    EXPECT_EQ(h::bucket_index(lo + w - 1), i) << "last ns of bucket " << i;
    if (i + 1 < h::k_buckets) {
      EXPECT_EQ(h::bucket_index(lo + w), i + 1) << "first ns past " << i;
    }
  }
  // Values beyond the covered range clamp into the top bucket instead of
  // indexing out of bounds.
  EXPECT_EQ(h::bucket_index(~std::uint64_t{0}), h::k_buckets - 1);
}

TEST(RtLatencyHistogram, QuantilesOrderedMergeAndDeltaSubtract) {
  metrics::latency_histogram h;
  for (const std::uint64_t ns : {1u, 10u, 100u, 1000u, 100000u}) {
    h.record(ns, 100);
  }
  metrics::latency_snapshot a;
  h.snapshot_into(a);
  EXPECT_EQ(a.total(), 500u);
  const double p50 = a.quantile(0.50);
  const double p99 = a.quantile(0.99);
  const double p999 = a.quantile(0.999);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
  // 250th sample falls in the 100 ns value's bucket ([96, 128)).
  EXPECT_GE(p50, 96.0);
  EXPECT_LE(p50, 128.0);
  EXPECT_GT(a.approx_mean_ns(), 0.0);

  // Windowed delta isolates exactly the new samples.
  h.record(50, 7);
  metrics::latency_snapshot b;
  h.snapshot_into(b);
  const metrics::latency_snapshot d = b.delta_since(a);
  EXPECT_EQ(d.total(), 7u);
  EXPECT_EQ(d.counts[metrics::latency_histogram::bucket_index(50)], 7u);

  // merge(a) + merge(delta) reassembles the later snapshot.
  metrics::latency_snapshot m;
  m.merge(a).merge(d);
  EXPECT_EQ(m.total(), b.total());

  // Empty snapshots answer 0, never NaN.
  const metrics::latency_snapshot z;
  EXPECT_EQ(z.quantile(0.99), 0.0);
  EXPECT_EQ(z.approx_mean_ns(), 0.0);
}

TEST(RtLatencyHistogram, EngineRecordsOnlyWhenEnabled) {
  rt::engine_config off;
  off.max_workers = 2;
  rt::datapath_engine e_off{off};
  rt::worker_handle& w_off = e_off.register_worker();
  e_off.install(rt_snapshot(1));
  e_off.switch_active();
  for (int i = 0; i < 16; ++i) e_off.route(w_off, 7, i * 0.01, {}, {});
  metrics::latency_snapshot s_off;
  e_off.latency_snapshot_into(s_off);
  EXPECT_EQ(s_off.total(), 0u);  // telemetry off by default

  rt::engine_config on;
  on.max_workers = 2;
  on.telemetry.latency = true;  // shift 0: every route timed
  rt::datapath_engine e{on};
  rt::worker_handle& w = e.register_worker();
  e.install(rt_snapshot(1));
  e.switch_active();
  for (int i = 0; i < 64; ++i) e.route(w, 7, i * 0.01, {}, {});
  metrics::latency_snapshot s;
  e.latency_snapshot_into(s);
  EXPECT_EQ(s.total(), 64u);
  EXPECT_GT(s.quantile(0.5), 0.0);
}

// ------------------------------------------------------ flight recorder --

TEST(RtFlightRecorder, ViolationDumpIsParseableAndKeepsTheFlowsLastEvents) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "lf_blackbox_unit";
  fs::create_directories(dir);
  ::setenv("LF_BENCH_OUT", dir.string().c_str(), 1);

  rt::engine_config cfg;
  cfg.max_workers = 2;
  cfg.telemetry.blackbox_events = 64;
  rt::datapath_engine e{cfg};
  rt::worker_handle& w = e.register_worker();
  e.install(rt_snapshot(1));
  EXPECT_TRUE(e.switch_active());
  // Route summaries are sampled 1 in 2^k_blackbox_route_shift per worker,
  // starting with the worker's first route.
  for (int i = 0; i < 8; ++i) e.route(w, 42, i * 0.01, {}, {});
  e.record_violation(w, 42, /*expected_gen=*/1, /*observed_gen=*/3);

  ASSERT_NE(e.recorder(), nullptr);
  const std::string path = e.recorder()->dump("unit");
  ::unsetenv("LF_BENCH_OUT");
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("BLACKBOX_unit.json"), std::string::npos);

  std::ifstream is{path};
  ASSERT_TRUE(is.good());
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string json = ss.str();

  // The dump must carry the violating flow's history: the violation record
  // with both generations decoded, the flow's sampled route summaries, and
  // the snapshot lifecycle events leading up to it.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"invariant_violation\""), std::string::npos);
  EXPECT_NE(json.find("\"expected_gen\":1"), std::string::npos);
  EXPECT_NE(json.find("\"observed_gen\":3"), std::string::npos);
  EXPECT_NE(json.find("\"route_summary\""), std::string::npos);
  EXPECT_NE(json.find("\"snapshot_switch\""), std::string::npos);

  // Parseable: braces and brackets balance (no string literal in the
  // exporter's output contains either).
  long depth = 0;
  long square = 0;
  for (const char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    if (c == '[') ++square;
    if (c == ']') --square;
    ASSERT_GE(depth, 0);
    ASSERT_GE(square, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(square, 0);
  fs::remove_all(dir);
}

// ------------------------------------------------------- live telemetry --

TEST(RtTelemetry, PublishStatsZeroRoutesAndZeroAcquisitionsReadZero) {
  rt::engine_config cfg;
  cfg.max_workers = 2;
  rt::datapath_engine e{cfg};
  metrics::registry reg;
  e.register_metrics(reg, "rt");
  // Nothing has routed and no shard lock was ever taken: every derived
  // rate must read 0, not NaN (0/0) — this is what makes publish_stats
  // safe to call before traffic starts.
  e.publish_stats();
  ASSERT_NE(reg.find_gauge("rt.lock.per_route"), nullptr);
  EXPECT_EQ(reg.find_gauge("rt.lock.per_route")->value(), 0.0);
  EXPECT_EQ(reg.find_gauge("rt.lock.contended_ratio")->value(), 0.0);
  EXPECT_EQ(reg.find_gauge("rt.l1.hit_rate")->value(), 0.0);
}

TEST(RtTelemetry, PublishStatsMidRunMatchesLiveCounters) {
  rt::engine_config cfg;
  cfg.max_workers = 2;
  rt::datapath_engine e{cfg};
  rt::worker_handle& w = e.register_worker();
  e.install(rt_snapshot(1));
  e.switch_active();
  // Mixed traffic: 16 distinct flows (misses) then the same 16 again
  // (hits, mostly L1).
  for (int pass = 0; pass < 2; ++pass) {
    for (netsim::flow_id_t f = 0; f < 16; ++f) {
      e.route(w, 100 + f, pass * 0.1, {}, {});
    }
  }
  metrics::registry reg;
  e.register_metrics(reg, "rt");
  e.publish_stats();

  const auto c = e.counters_now();
  EXPECT_EQ(c.routes, 32u);
  const double per_route = reg.find_gauge("rt.lock.per_route")->value();
  const double hit_rate = reg.find_gauge("rt.l1.hit_rate")->value();
  const double contended = reg.find_gauge("rt.lock.contended_ratio")->value();
  EXPECT_NEAR(per_route,
              static_cast<double>(c.lock_acquisitions) /
                  static_cast<double>(c.routes),
              1e-12);
  EXPECT_NEAR(hit_rate,
              static_cast<double>(c.l1_hits) / static_cast<double>(c.routes),
              1e-12);
  EXPECT_GE(contended, 0.0);
  EXPECT_LE(contended, 1.0);
  EXPECT_GT(hit_rate, 0.0);  // the second pass hit the per-worker L1
}

TEST(RtTelemetry, SamplerTicksFoldWindowsAndRenderPrometheusText) {
  rt::engine_config cfg;
  cfg.max_workers = 2;
  cfg.telemetry.latency = true;
  rt::datapath_engine e{cfg};
  rt::worker_handle& w = e.register_worker();
  e.install(rt_snapshot(1));
  e.switch_active();

  rt::stats_sampler s{e, {}};  // not started: the test ticks by hand

  for (netsim::flow_id_t f = 0; f < 32; ++f) e.route(w, f, 0.0, {}, {});
  s.tick();
  auto ws = s.windows();
  ASSERT_EQ(ws.size(), 1u);
  EXPECT_EQ(ws[0].routes, 32u);
  EXPECT_EQ(ws[0].samples, 32u);  // shift 0: every route timed
  EXPECT_GT(ws[0].p50_ns, 0.0);
  EXPECT_LE(ws[0].p50_ns, ws[0].p99_ns);
  EXPECT_LE(ws[0].p99_ns, ws[0].p999_ns);
  EXPECT_GE(ws[0].l1_hit_rate, 0.0);
  EXPECT_EQ(ws[0].versions_live, 1u);

  // An idle window folds cleanly: zero routes, zero samples, and the
  // zero-division edges answer 0.
  s.tick();
  ws = s.windows();
  ASSERT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws[1].routes, 0u);
  EXPECT_EQ(ws[1].samples, 0u);
  EXPECT_EQ(ws[1].p50_ns, 0.0);
  EXPECT_EQ(ws[1].l1_hit_rate, 0.0);
  EXPECT_EQ(ws[1].locks_per_route, 0.0);

  const std::string text = s.render_text();
  EXPECT_NE(text.find("lf_rt_routes_total 32"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lf_rt_route_latency_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("lf_rt_route_latency_ns_count 32"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 32"), std::string::npos);
  EXPECT_NE(text.find("lf_rt_versions_live 1"), std::string::npos);
}

}  // namespace
