// rt harness: real threads against the real-thread datapath engine.
//
//   rt_harness <profile>
//
// A profile is one row of constants (k_profiles below), and the exit status
// is its whole verdict, locally as in CI.  Two scenarios share the engine
// set-up, the worker loop, telemetry, the artifacts and the verdict:
//
//  * Switch storm (stress, stress-mix, anomaly, bad-switch; artifacts
//    BENCH/REPORT/STATS/INCIDENT_rt_engine): N workers route their flows
//    and run compiled integer inference while the writer performs
//    randomized install / switch / no-op-switch cycles, and the workers
//    interleave FINs, idle expiry and batched routing.  Three reference
//    phases run first, each on its own engine: a one-worker scalar
//    baseline, one worker batched vs scalar (route_batch), and a
//    1/2/4/8/16-worker sweep under a live storm (the scaling curve, with
//    L1 hit rate and locks per route at each point).
//  * Gate script (multimodel, multimodel-bad-switch; artifacts
//    *_multimodel): K logical models behind one engine, each scripted
//    through shadow-scored switching while the workers route all K:
//      A  bootstrap: install v1; try_switch flips (no incumbent to score)
//      B  drift: install a net from another seed; once the sampled slice
//         holds min_samples of evidence, try_switch must be gate-blocked
//      C  retrain: reinstall the first seed's net; try_switch admits it
//    Every ruling becomes a row of the flight report's gates table.
//
// Every worker asserts the §3.4 flow-consistency invariant online: a
// flow-cache hit must serve exactly the generation its (model, flow)
// pinned at its last miss, on scalar and batched results alike.
//
// Faults; the storm's are fractions of the run length d, so a clean prefix
// always exists for the watchdog's baselines:
//   stall  [0.30d, 0.50d): a ~250x-MACs net swapped into every model, a
//          real p999 and throughput regression
//   storm  [0.65d, 0.85d): a tight install+switch loop; every flip bumps
//          the shared switch epoch and reclamation loses to the flip rate
//   bad    at 0.40d (in the script: stage D, 0.8 s after stage C): the
//          heavy net promoted on model 0 past the gate, with a probation
//          hold and the watchdog's rollback policy armed
//
// Environment: LF_BENCH_OUT (artifact directory) and LF_BENCH_FAST (0.6-s
// main run and 0.15-s sweep points) keep their repo-wide meaning; nothing
// else is read.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <stop_token>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "codegen/snapshot.hpp"
#include "nn/mlp.hpp"
#include "rt/anomaly_watchdog.hpp"
#include "rt/stats_sampler.hpp"
#include "util/bench_report.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/run_report.hpp"

namespace {

using namespace lf;
using clock_point = std::chrono::steady_clock::time_point;

struct profile {
  std::string_view name;
  /// Gate script instead of the switch storm and its reference phases.
  bool scripted = false;
  std::size_t workers = 4;
  std::size_t models = 1;
  double shadow_rate = 0.0;
  /// Storm seconds; 0 = 2.0, or 0.6 under LF_BENCH_FAST.  The script runs
  /// until its stages are done.
  double seconds = 0.0;
  bool stall = false;
  bool storm = false;
  bool bad = false;
  /// Probation hold in stats windows; nonzero arms the rollback policy.
  std::size_t probation_windows = 0;
  /// Verdict: the scaling, lock and telemetry floors.
  bool floors = false;
  /// Verdict: no incident, no INCIDENT file, every rt.watchdog.* scalar 0
  /// and no rollback key.
  bool silent = false;
};

constexpr profile k_profiles[] = {
    {.name = "stress", .floors = true, .silent = true},
    // The TSan mix: route_batch, two models sharing the epoch domain and
    // cache, and the standby shadow-inferring 20% of flows, all racing the
    // storm, the sampler and the watchdog.
    {.name = "stress-mix", .models = 2, .shadow_rate = 0.2, .seconds = 3.0},
    {.name = "anomaly", .seconds = 4.0, .stall = true, .storm = true},
    // The bad switch lands at 1.6 s; the 6-s hold outlasts the run, so
    // TSan's slower detection still rolls back inside it.
    {.name = "bad-switch",
     .seconds = 4.0,
     .bad = true,
     .probation_windows = 60},
    {.name = "multimodel",
     .scripted = true,
     .workers = 2,
     .models = 3,
     .shadow_rate = 0.25,
     .silent = true},
    // The heavy net carries ~1/3 of routes and the scripted churn inflates
    // the p999 baseline, so detection needs a longer hold than the storm.
    {.name = "multimodel-bad-switch",
     .scripted = true,
     .workers = 2,
     .models = 3,
     .shadow_rate = 0.25,
     .bad = true,
     .probation_windows = 100},
};

// The scaling floor is defined at 4 workers; the gate script at >= 3 models.
static_assert(std::ranges::all_of(k_profiles, [](const profile& p) {
  return (!p.floors || p.workers == 4) && (!p.scripted || p.models >= 3);
}));

constexpr std::size_t k_flows = 256;  ///< per worker and model
constexpr std::size_t k_batch = 8;    ///< storm route_batch size
constexpr std::size_t k_min_switches = 120;
constexpr std::size_t k_sweep[] = {1, 2, 4, 8, 16};

double now_seconds(clock_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::uint64_t ns_between(clock_point a, clock_point b) {
  return static_cast<std::uint64_t>(std::chrono::nanoseconds{b - a}.count());
}

/// Collects the profile's checks: a failed one prints "FAIL: ..." and makes
/// the exit status nonzero.
struct verdict {
  bool ok = true;
  __attribute__((format(printf, 3, 4))) void expect(bool cond,
                                                    const char* fmt, ...) {
    if (cond) return;
    ok = false;
    std::va_list ap;
    va_start(ap, fmt);
    std::fputs("FAIL: ", stderr);
    std::vfprintf(stderr, fmt, ap);
    std::fputc('\n', stderr);
    va_end(ap);
  }
};

/// "Training run": the seed fully determines the weights, so re-running a
/// seed reproduces a model (stage C) and a fresh seed drifts it (stage B).
/// The storm's pool is seeds 0x5eed0000 + i, paid before the clock starts
/// so the storm measures the datapath, not generation.
codegen::snapshot train(std::uint64_t seed, const std::string& name,
                        std::uint64_t version) {
  rng g{seed};
  return codegen::generate_snapshot(nn::make_ffnn_flow_size_net(g), name,
                                    version);
}

/// The stall and bad-switch nets: the pool's 8 -> 1 shape (worker inputs
/// stay valid) with ~250x the multiply-accumulates, so per-route inference
/// really balloons.  `train_ns` is the measured generation cost per net,
/// mirrored into the control ring as a `train` stage when one is
/// installed, so an anomaly dump correlates the regression with it.
struct heavy_nets {
  std::vector<codegen::snapshot> nets;
  std::uint64_t train_ns = 0;
};

heavy_nets make_heavy(std::size_t n) {
  heavy_nets h;
  const auto t0 = std::chrono::steady_clock::now();
  const nn::layer_spec layers[] = {{128, nn::activation::relu},
                                   {128, nn::activation::relu},
                                   {1, nn::activation::linear}};
  for (std::size_t i = 0; i < n; ++i) {
    rng g{0xbeef0000 + i};
    nn::mlp net{8, layers, g};
    h.nets.push_back(codegen::generate_snapshot(net, "rt-heavy", 1));
  }
  if (n != 0) {
    h.train_ns = static_cast<std::uint64_t>(now_seconds(t0) * 1e9 /
                                            static_cast<double>(n));
  }
  return h;
}

/// Install `snap` as `m`'s standby under `version`, mirroring its `train`
/// cost into the control ring first.
void install_trained(rt::datapath_engine& engine, core::model_key m,
                     codegen::snapshot snap, std::uint64_t version,
                     std::uint64_t train_ns) {
  engine.record_lifecycle(trace::lifecycle_phase::train, m, version,
                          train_ns);
  snap.version = version;
  engine.install(m, std::move(snap));
}

/// The bad switch: the heavy net promoted on model 0 through the ungated
/// switch_active (the candidate slipped past the gate).  The probation hold
/// it opens names the rollback target (held_gen) and the bad gen
/// (promoted_gen); detection and rollback are the sampler thread's job.
rt::snapshot_handle::probation_status land_bad_switch(
    rt::datapath_engine& engine, const heavy_nets& heavy,
    std::uint64_t version) {
  install_trained(engine, core::k_default_model, heavy.nets[0], version,
                  heavy.train_ns);
  engine.switch_active(core::k_default_model);
  return engine.probation(core::k_default_model);
}

struct worker_outcome {
  std::uint64_t violations = 0;
  std::uint64_t routes = 0;
  std::uint64_t inferences = 0;
};

/// One worker thread: routes its own flow partition across every model
/// (scalar and, when `batch > 0`, batched on ~25% of iterations), FINs ~3%
/// of iterations, expires idle entries every 8192, and checks the
/// consistency invariant on every result.
worker_outcome run_worker(rt::datapath_engine& engine, rt::worker_handle& w,
                          std::uint64_t flow_base, std::size_t batch,
                          std::uint64_t seed, clock_point t0,
                          std::stop_token stop) {
  rng g{seed};
  worker_outcome out;
  const std::size_t models = engine.model_count();
  // expected generation per owned (model, flow); 0 = not pinned (flows are
  // worker-partitioned, so this thread is the only router/FINisher — and
  // each model's cache entry for a flow is an independent binding).
  std::vector<std::uint64_t> expected(models * k_flows, 0);
  std::vector<fp::s64> input(8);
  std::vector<fp::s64> output(1);
  std::vector<netsim::flow_id_t> bflows(batch);
  std::vector<std::size_t> bidx(batch);
  std::vector<fp::s64> binputs(batch * 8);
  std::vector<fp::s64> bouts(batch * 1);
  std::vector<rt::route_result> bresults(batch);
  std::uint64_t iter = 0;

  const auto pick_model = [&]() -> core::model_key {
    return models == 1 ? core::k_default_model
                       : static_cast<core::model_key>(g.uniform_int(
                             0, static_cast<std::int64_t>(models) - 1));
  };
  const auto pick_flow = [&]() {
    return static_cast<std::size_t>(
        g.uniform_int(0, static_cast<std::int64_t>(k_flows) - 1));
  };
  const auto check = [&](const rt::route_result& r, core::model_key m,
                         std::size_t idx) {
    if (r.gen == 0) return;
    ++out.routes;
    if (r.served) ++out.inferences;
    // The invariant: a hit serves exactly the generation pinned at this
    // (model, flow)'s last miss (expected != 0 always holds on a hit,
    // because this worker owns the flow and every hit follows a miss).
    const std::size_t slot = static_cast<std::size_t>(m) * k_flows + idx;
    if (r.hit && r.gen != expected[slot]) {
      ++out.violations;
      // Black-box first, accounting second: the recorder gets the violating
      // flow's key and both generations while the rings still hold the
      // events leading up to it.
      engine.record_violation(
          w, core::composite_flow_key(m, static_cast<netsim::flow_id_t>(
                                             flow_base + idx)),
          expected[slot], r.gen);
    }
    expected[slot] = r.gen;
  };

  while (!stop.stop_requested()) {
    ++iter;
    const double now = now_seconds(t0);
    if (batch > 0 && (iter & 3) == 0) {
      // Batched leg: `batch` random owned flows through one route_batch
      // (batches are single-model per call, like a per-model NIC queue).
      const core::model_key m = pick_model();
      for (std::size_t b = 0; b < batch; ++b) {
        bidx[b] = pick_flow();
        bflows[b] = static_cast<netsim::flow_id_t>(flow_base + bidx[b]);
        for (std::size_t j = 0; j < 8; ++j) {
          binputs[b * 8 + j] = g.uniform_int(-900, 900);
        }
      }
      engine.route_batch(w, m, bflows, now, binputs, bouts, bresults);
      for (std::size_t b = 0; b < batch; ++b) check(bresults[b], m, bidx[b]);
    } else {
      const core::model_key m = pick_model();
      const std::size_t idx = pick_flow();
      const auto flow = static_cast<netsim::flow_id_t>(flow_base + idx);
      for (auto& x : input) x = g.uniform_int(-900, 900);  // within io_scale
      check(engine.route(w, m, flow, now, input, output), m, idx);
    }
    // Interleavings: FINs re-pin flows to the current active; a full
    // idle-expiry sweep every few thousand iterations races the sweep
    // against other workers.
    if (g.uniform() < 0.03) {
      const core::model_key m = pick_model();
      const std::size_t idx = pick_flow();
      engine.flow_finished(w, m,
                           static_cast<netsim::flow_id_t>(flow_base + idx));
      expected[static_cast<std::size_t>(m) * k_flows + idx] = 0;
    } else if ((iter & 0x1fff) == 0) {
      engine.expire_idle(now_seconds(t0));
    }
  }
  return out;
}

struct run_stats {
  std::vector<worker_outcome> outcomes;
  double elapsed = 0.0;
  double rps = 0.0;
  double l1_hit_rate = 0.0;
  double locks_per_route = 0.0;
  std::uint64_t routes = 0;
  std::uint64_t inferences = 0;
  std::uint64_t violations = 0;
};

/// Run one worker thread per handle while `drive(t0)` runs on this thread
/// (the writer), then stop and join them and tally their outcomes.
template <typename Drive>
run_stats route_while(rt::datapath_engine& engine,
                      const std::vector<rt::worker_handle*>& handles,
                      std::size_t batch, Drive&& drive) {
  run_stats st;
  st.outcomes.resize(handles.size());
  const clock_point t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < handles.size(); ++i) {
      threads.emplace_back([&, i](std::stop_token stop) {
        st.outcomes[i] = run_worker(engine, *handles[i],
                                    (i + 1) * 1'000'000ull, batch,
                                    0xf00d + i, t0, stop);
      });
    }
    drive(t0);
    for (std::jthread& t : threads) t.request_stop();
  }  // joined here, on the exception path too
  st.elapsed = now_seconds(t0);
  std::uint64_t l1_hits = 0;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    st.routes += st.outcomes[i].routes;
    st.inferences += st.outcomes[i].inferences;
    st.violations += st.outcomes[i].violations;
    l1_hits += handles[i]->l1_hits();
  }
  const auto per_route = [&](double n) {
    return st.routes > 0 ? n / static_cast<double>(st.routes) : 0.0;
  };
  st.rps = static_cast<double>(st.routes) / st.elapsed;
  st.l1_hit_rate = per_route(static_cast<double>(l1_hits));
  st.locks_per_route = per_route(
      static_cast<double>(engine.cache().stats().lock_acquisitions));
  return st;
}

/// Install one pool net per model and activate it (the storm's start).
void activate_pool(rt::datapath_engine& engine,
                   const std::vector<codegen::snapshot>& pool) {
  for (std::size_t m = 0; m < engine.model_count(); ++m) {
    const auto key = static_cast<core::model_key>(m);
    engine.install(key, pool[m % pool.size()]);
    engine.switch_active(key);
  }
}

/// The storm writer: randomized install / switch / no-op-switch cycles
/// until `duration` has passed and the engine made `min_switches`
/// switches, with `p`'s faults injected on schedule (none when p is null).
/// `bad` receives the bad switch's probation hold.
void storm_writer(rt::datapath_engine& engine,
                  const std::vector<codegen::snapshot>& pool, double duration,
                  std::size_t min_switches, const profile* p,
                  const heavy_nets& heavy, clock_point t0,
                  rt::snapshot_handle::probation_status& bad) {
  const std::size_t models = engine.model_count();
  const auto in = [&](double from, double to, double now) {
    return now >= from * duration && now < to * duration;
  };
  const auto reinstall = [&](core::model_key m, std::uint64_t version) {
    codegen::snapshot snap = pool[version % pool.size()];
    snap.version = version + 1;
    engine.install(m, std::move(snap));
  };
  rng g{0x3717e4};
  std::uint64_t version = 1;
  bool stall_active = false;
  bool bad_active = false;
  std::uint64_t storm_flips = 0;
  // The bad switch waives the switch target once it lands: the writer stops
  // churning so the rollback flip is the last lifecycle event the tail
  // windows see.
  while (now_seconds(t0) < duration ||
         (!bad_active && engine.switches() < min_switches + 1)) {
    const double now = now_seconds(t0);
    if (p != nullptr && p->bad && now >= 0.40 * duration) {
      if (!bad_active) {
        bad_active = true;
        bad = land_bad_switch(engine, heavy, ++version);
      }
      engine.maintain();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    if (p != nullptr && p->stall && in(0.30, 0.50, now)) {
      if (!stall_active) {
        // Hold the heavy net in every model: per-route inference balloons,
        // and p999 and routes/s regress for real.
        stall_active = true;
        for (std::size_t m = 0; m < models; ++m) {
          const auto key = static_cast<core::model_key>(m);
          install_trained(engine, key, heavy.nets[m % heavy.nets.size()],
                          ++version, heavy.train_ns);
          engine.switch_active(key);
        }
      }
      engine.maintain();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    if (stall_active) {
      // Stall over: back to pool nets, so the watchdog sees recovery (and
      // re-arms) before the storm window.
      stall_active = false;
      for (std::size_t m = 0; m < models; ++m) {
        const auto key = static_cast<core::model_key>(m);
        reinstall(key, version++);
        engine.switch_active(key);
      }
    }
    // All model lifecycles are driven from this one writer thread (the rt
    // contract), picking models at random so their flips interleave in the
    // shared switch epoch.
    const auto m = static_cast<core::model_key>(
        models == 1 ? 0
                    : g.uniform_int(0, static_cast<std::int64_t>(models) - 1));
    if (p != nullptr && p->storm && in(0.65, 0.85, now)) {
      // Tight flip loop: every switch invalidates every worker's L1, and
      // the install rate outruns reclamation, so the live version count
      // holds an order of magnitude above the steady churn level.
      reinstall(m, version++);
      engine.switch_active(m);
      engine.maintain();
      if ((++storm_flips & 255) == 0) {
        // Breathe every 256 flips: on a starved single-core host a no-sleep
        // loop can starve the stats sampler of every storm-era window, and
        // an anomaly nobody sampled cannot be detected.  Coarse on purpose:
        // breathing often would let reclamation keep pace and dissolve the
        // very anomaly being injected.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      continue;
    }
    const double dice = g.uniform();
    if (dice < 0.75) {
      reinstall(m, version++);
      engine.switch_active(m);
    } else if (dice < 0.85) {
      // Standby replaced before ever activating (orphan retirement path).
      reinstall(m, version++);
    } else {
      // No-standby switch: must be a counted no-op, never a null flip.
      engine.switch_active(m);
    }
    engine.maintain();
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<int>(g.uniform(100.0, 4000.0))));
  }
}

/// Phase 2: one worker, no switches, 16-flow route_batch calls back to
/// back for `seconds`; returns routes/s.
double batched_routes_per_sec(const rt::engine_config& cfg,
                              const codegen::snapshot& snap, double seconds) {
  constexpr std::size_t k_bench_batch = 16;
  rt::datapath_engine engine{cfg};
  engine.install(snap);
  engine.switch_active();
  rt::worker_handle& w = engine.register_worker();
  rng g{0xba7c4};
  std::vector<netsim::flow_id_t> bflows(k_bench_batch);
  std::vector<fp::s64> binputs(k_bench_batch * 8);
  std::vector<fp::s64> bouts(k_bench_batch);
  std::vector<rt::route_result> bresults(k_bench_batch);
  const clock_point t0 = std::chrono::steady_clock::now();
  std::uint64_t routed = 0;
  while (now_seconds(t0) < seconds) {
    for (std::size_t b = 0; b < k_bench_batch; ++b) {
      bflows[b] = static_cast<netsim::flow_id_t>(
          1 + g.uniform_int(0, static_cast<std::int64_t>(k_flows) - 1));
      for (std::size_t j = 0; j < 8; ++j) {
        binputs[b * 8 + j] = g.uniform_int(-900, 900);
      }
    }
    engine.route_batch(w, bflows, now_seconds(t0), binputs, bouts, bresults);
    routed += k_bench_batch;
  }
  return static_cast<double>(routed) / now_seconds(t0);
}

/// Register `n` workers, with per-worker metrics when `reg` is given.
std::vector<rt::worker_handle*> register_workers(rt::datapath_engine& engine,
                                                 std::size_t n,
                                                 metrics::registry* reg) {
  std::vector<rt::worker_handle*> handles;
  for (std::size_t i = 0; i < n; ++i) {
    rt::worker_handle& w = engine.register_worker();
    if (reg != nullptr) {
      w.register_metrics(*reg, "rt.worker" + std::to_string(i));
    }
    handles.push_back(&w);
  }
  return handles;
}

/// One gate-script ruling: a shadow-gated switch, admitted or blocked, or
/// stage D's rollback.
struct gate_row {
  double t = 0.0;
  core::model_key model = 0;
  /// The candidate's snapshot version; the script installs once per
  /// generation, so it is the candidate's generation too.
  std::uint64_t version = 0;
  bool admitted = false;
  /// A gate-aware rollback: `version` is the re-promoted previous active,
  /// and the row is admitted (a rollback undoes a switch the gate admitted
  /// and live evidence then condemned).
  bool rollback = false;
  core::shadow_verdict verdict{};
};

struct script_outcome {
  std::vector<gate_row> gates;
  std::uint64_t blocked = 0;
  std::uint64_t admitted_after_block = 0;
};

/// The gate script: stages A-C on every model and, with `p.bad`, stage D.
/// Stage expectations go straight into `v`.
script_outcome gate_script(rt::datapath_engine& engine, const profile& p,
                           const heavy_nets& heavy, clock_point t0,
                           rt::snapshot_handle::probation_status& bad,
                           verdict& v) {
  const core::shadow_config& sh = engine.config().shadow;
  script_outcome out;
  // Bounded: on timeout the stage's expectation fails loudly instead.
  const auto wait_evidence = [&](core::model_key m) {
    const double deadline = now_seconds(t0) + 10.0;
    while (engine.shadow_evidence(m).samples < sh.min_samples &&
           now_seconds(t0) < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };
  const auto record_gate = [&](core::model_key m, std::uint64_t version,
                               const rt::switch_outcome& o) {
    out.gates.push_back({.t = now_seconds(t0),
                         .model = m,
                         .version = version,
                         .admitted = o.flipped(),
                         .verdict = o.verdict});
  };
  // Each install is a fresh training run: its cost lands in the control
  // ring as a `train` stage and the install's own as an `install` stage, so
  // a black-box dump taken around an anomaly carries the slow-path work
  // that preceded it.
  const auto install = [&](core::model_key m, std::uint64_t seed,
                           std::uint64_t version) {
    const clock_point c0 = std::chrono::steady_clock::now();
    codegen::snapshot snap = train(seed, "mm-m" + std::to_string(m), version);
    const clock_point c1 = std::chrono::steady_clock::now();
    install_trained(engine, m, std::move(snap), version, ns_between(c0, c1));
    engine.record_lifecycle(trace::lifecycle_phase::install, m, version,
                            ns_between(c1, std::chrono::steady_clock::now()));
  };

  for (std::size_t mi = 0; mi < engine.model_count(); ++mi) {
    const auto m = static_cast<core::model_key>(mi);
    const std::uint64_t seed = 0x5eed0000 + mi;
    install(m, seed, 1);
    v.expect(engine.try_switch(m).flipped(),
             "model %u: bootstrap switch did not flip", m);

    install(m, seed ^ 0xbad0bad0ull, 2);
    wait_evidence(m);
    const rt::switch_outcome b = engine.try_switch(m);
    record_gate(m, 2, b);
    const bool blocked = b.status == rt::switch_outcome::result::gate_blocked;
    v.expect(blocked, "model %u: drifted candidate was not gate-blocked", m);
    v.expect(b.verdict.mean_divergence > sh.divergence_threshold,
             "model %u: drifted candidate divergence did not exceed the "
             "threshold",
             m);
    out.blocked += blocked;

    install(m, seed, 3);
    wait_evidence(m);
    const rt::switch_outcome c = engine.try_switch(m);
    record_gate(m, 3, c);
    v.expect(c.flipped(), "model %u: retrained candidate was not admitted",
             m);
    out.admitted_after_block += c.flipped() && blocked;
  }

  if (p.bad) {
    // Stage D: the failure §3.3's gate cannot catch, a regression visible
    // only under production load.  Let the watchdog re-settle its
    // baselines after the stage-C churn first, so the spike attributes to
    // stage D.
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
    bad = land_bad_switch(engine, heavy, 4);
    std::printf("stage D: bad switch on model 0 -> gen %" PRIu64
                " (hold on %" PRIu64 ")\n",
                bad.promoted_gen, bad.held_gen);
    const double deadline = now_seconds(t0) + 20.0;
    while (engine.rollbacks() == 0 && now_seconds(t0) < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (engine.rollbacks() != 0) {
      // Record the rollback next to the gate's rulings, so the flight
      // report carries the row.
      out.gates.push_back({.t = now_seconds(t0),
                           .model = 0,
                           .version = 3,  // stage C's version, re-promoted
                           .admitted = true,
                           .rollback = true});
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

/// a / b, or 0 when nothing was measured to divide by.
double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const profile* found = nullptr;
  for (const profile& p : k_profiles) {
    if (argc == 2 && p.name == argv[1]) found = &p;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "usage: %s <profile>\nprofiles:", argv[0]);
    for (const profile& p : k_profiles) {
      std::fprintf(stderr, " %s", p.name.data());
    }
    std::fputc('\n', stderr);
    return 2;
  }
  const profile& p = *found;
  // Artifact basename: BENCH_/REPORT_/STATS_/INCIDENT_<label>.
  const char* label = p.scripted ? "multimodel" : "rt_engine";
  const bool fast = bench::fast_mode();
  const double duration = p.seconds > 0.0 ? p.seconds : fast ? 0.6 : 2.0;
  const double sweep_seconds = fast ? 0.15 : 0.5;
  const unsigned host_cpus = std::thread::hardware_concurrency();
  verdict v;

  rt::engine_config cfg;
  cfg.models = p.models;
  cfg.probation_windows = p.probation_windows;
  cfg.shadow.sample_rate = p.shadow_rate;
  // A slot per worker, up to the sweep's widest point, plus one for the
  // post-run probe.  With shards = 0 this budget also sets the shard count.
  const std::size_t widest =
      p.scripted ? p.workers : std::max(p.workers, std::ranges::max(k_sweep));
  cfg.max_workers = widest + 1;
  if (!p.scripted) {
    cfg.idle_timeout = 0.05;  // aggressive: force idle-expiry races
    // The storm flips unconditionally; shadow scoring runs for its races,
    // and the gate would only starve the storm.
    cfg.shadow.gate_enabled = false;
  }
  // Telemetry is the same in every phase, so the speedup ratios compare
  // runs with identical per-route overhead.
  cfg.telemetry.latency = true;
  cfg.telemetry.blackbox_events = 4096;
  // Anomaly dumps are rate-limited at the recorder: a flapping rule cannot
  // flood the bench directory (suppressions are counted, not silent).
  cfg.telemetry.blackbox_dump_interval_ns = 250'000'000;
  cfg.telemetry.blackbox_max_dumps = 16;

  std::printf(
      "rt harness %s: %zu workers x %zu flows, %zu models, shadow %.3f, "
      "%s, %u host cpus\n",
      p.name.data(), p.workers, k_flows, p.models, p.shadow_rate,
      p.scripted ? "gate script" : "switch storm", host_cpus);
  // Paid before any clock starts, so runs measure the datapath, not codegen.
  std::vector<codegen::snapshot> pool;
  for (std::uint64_t i = 0; i < 6; ++i) {
    pool.push_back(train(0x5eed0000 + i, "rt-ffnn", i + 1));
  }
  const heavy_nets heavy = make_heavy(p.stall ? p.models : p.bad ? 1 : 0);
  rt::snapshot_handle::probation_status bad{};
  std::uint64_t violations = 0;

  // ---- storm reference phases: baseline, batched, worker sweep ---------
  double baseline_rps = 0.0, batched_rps = 0.0;
  std::vector<std::pair<std::size_t, run_stats>> curve;
  if (!p.scripted) {
    const double short_run = std::min(duration * 0.5, 0.5);
    {
      rt::datapath_engine engine{cfg};
      activate_pool(engine, pool);
      const run_stats base =
          route_while(engine, register_workers(engine, 1, nullptr), 0,
                      [&](clock_point) {
                        std::this_thread::sleep_for(
                            std::chrono::duration<double>(short_run));
                      });
      baseline_rps = base.rps;
      violations += base.violations;
    }
    std::printf("baseline (1 worker, no switches, scalar): %.0f routes/s\n",
                baseline_rps);
    batched_rps = batched_routes_per_sec(cfg, pool[0], short_run);
    std::printf("batched (1 worker, no switches, batch 16): %.0f routes/s "
                "(%.2fx scalar)\n",
                batched_rps, ratio(batched_rps, baseline_rps));
    for (const std::size_t n : k_sweep) {
      rt::datapath_engine engine{cfg};
      activate_pool(engine, pool);
      run_stats st = route_while(
          engine, register_workers(engine, n, nullptr), k_batch,
          [&](clock_point t0) {
            storm_writer(engine, pool, sweep_seconds, 0, nullptr, heavy, t0,
                         bad);
          });
      violations += st.violations;
      std::printf(
          "sweep %2zu workers: %9.0f routes/s (%.2fx), l1 %.3f, locks/route "
          "%.4f\n",
          n, st.rps, ratio(st.rps, baseline_rps), st.l1_hit_rate,
          st.locks_per_route);
      curve.emplace_back(n, std::move(st));
    }
  }

  // ---- main run: telemetry, watchdog and the profile's writer ----------
  if (p.stall) {
    std::printf("inject: stall window [%.2fs, %.2fs) (heavy pool: %zu nets)\n",
                0.30 * duration, 0.50 * duration, heavy.nets.size());
  }
  if (p.storm) {
    std::printf("inject: switch storm window [%.2fs, %.2fs)\n",
                0.65 * duration, 0.85 * duration);
  }
  if (p.bad && !p.scripted) {
    std::printf(
        "inject: bad switch at %.2fs (probation %zu windows, auto-rollback)\n",
        0.40 * duration, p.probation_windows);
  }
  // Incidents before the first injected disturbance are false positives.
  double clean_end = 1e300;
  if (p.stall) clean_end = std::min(clean_end, 0.30 * duration);
  if (p.storm) clean_end = std::min(clean_end, 0.65 * duration);
  if (p.bad) clean_end = std::min(clean_end, 0.40 * duration);

  // Declaration order is teardown order reversed: the sampler calls into
  // the watchdog, and both borrow the engine.
  rt::datapath_engine engine{cfg};
  metrics::registry reg;
  engine.register_metrics(reg, "rt");
  const std::vector<rt::worker_handle*> handles =
      register_workers(engine, p.workers, &reg);
  rt::anomaly_watchdog watchdog{{.incident_label = label,
                                 .auto_rollback = p.probation_windows != 0},
                                &engine};
  rt::stats_sampler sampler{
      engine,
      {.text_out = bench::output_dir() + "/STATS_" + label + ".prom"}};
  sampler.register_metrics(reg, "rt");
  watchdog.register_metrics(reg, "rt.watchdog");
  sampler.attach_watchdog(&watchdog);
  if (!p.scripted) activate_pool(engine, pool);
  sampler.start();
  script_outcome script;
  const run_stats st = route_while(
      engine, handles, p.scripted ? 0 : k_batch, [&](clock_point t0) {
        if (p.scripted) {
          script = gate_script(engine, p, heavy, t0, bad, v);
        } else {
          storm_writer(engine, pool, duration, k_min_switches, &p, heavy, t0,
                       bad);
        }
      });
  // After the joins: the final fold captures the tail of the run and
  // rewrites the stats text one last time.
  sampler.stop();
  violations += st.violations;

  // What readers see on model 0 now: a flow no worker touched, so the
  // answer comes from the active pointer, not a cache.
  std::uint64_t probe_gen = 0;
  if (p.bad) {
    std::vector<fp::s64> in(8, 0), out(1, 0);
    probe_gen = engine
                    .route(engine.register_worker(), core::k_default_model,
                           0xbadf100u, st.elapsed, in, out)
                    .gen;
  }
  // Drain: FIN every flow, close a hold the last switch left open (an
  // orderly close, not a leak), then retire everything demoted.  After the
  // grace period only each model's active (and maybe standby) survives.
  engine.cache().clear(engine.snapshots());
  engine.close_probation();
  engine.maintain();
  engine.epochs().synchronize();
  engine.publish_stats();

  const std::uint64_t live = engine.versions_live();
  std::uint64_t min_model_switches = ~0ull;
  for (std::size_t m = 0; m < p.models; ++m) {
    min_model_switches = std::min(
        min_model_switches,
        engine.snapshots(static_cast<core::model_key>(m)).switches());
  }
  const double speedup = ratio(st.rps, baseline_rps);
  for (std::size_t i = 0; i < st.outcomes.size(); ++i) {
    std::printf("worker%zu: %.0f routes/s (%" PRIu64 " routes, %" PRIu64
                " violations)\n",
                i, static_cast<double>(st.outcomes[i].routes) / st.elapsed,
                st.outcomes[i].routes, st.outcomes[i].violations);
  }
  std::printf("total: %.0f routes/s, l1 %.3f, locks/route %.4f, %" PRIu64
              " switches (%" PRIu64 " no-op, min %" PRIu64
              " per model), %" PRIu64 " shadow inferences, %" PRIu64
              " live after drain, %" PRIu64 " violations\n",
              st.rps, st.l1_hit_rate, st.locks_per_route, engine.switches(),
              engine.switch_noops(), min_model_switches,
              engine.shadow_inferences(), live, violations);
  if (!p.scripted) {
    std::printf("speedup vs single thread: %.2fx\n", speedup);
  } else {
    std::printf("gate: %" PRIu64 " blocked, %" PRIu64
                " admitted after block\n",
                script.blocked, script.admitted_after_block);
  }

  // ---- BENCH_<label>.json ----------------------------------------------
  bench::report rep{label, p.scripted
                                 ? "K models behind one engine, "
                                   "shadow-gated switching"
                                 : "real-thread datapath engine stress"};
  // Kept apart so the verdict can read the keys the JSON carries.
  std::vector<std::pair<std::string, double>> summary;
  const auto put = [&summary](std::string key, double value) {
    summary.emplace_back(std::move(key), value);
  };
  rep.config("workers", static_cast<double>(p.workers));
  rep.config("flows_per_worker", static_cast<double>(k_flows));
  rep.config("models", static_cast<double>(p.models));
  rep.config("shadow_sample_rate", p.shadow_rate);
  rep.config("shards", static_cast<double>(engine.config().shards));
  rep.config("l1_slots", static_cast<double>(engine.config().l1_slots));
  rep.config("blackbox_events",
             static_cast<double>(cfg.telemetry.blackbox_events));
  rep.config("stats_interval_ms", sampler.config().interval_ms);
  rep.config("host_cpus", static_cast<double>(host_cpus));
  rep.config("duration_seconds", st.elapsed);
  put("routes_per_sec", st.rps);
  put("inferences_per_sec", static_cast<double>(st.inferences) / st.elapsed);
  put("l1_hit_rate", st.l1_hit_rate);
  put("lock_acquisitions_per_route", st.locks_per_route);
  put("switches", static_cast<double>(engine.switches()));
  put("min_switches_per_model", static_cast<double>(min_model_switches));
  put("shadow_inferences", static_cast<double>(engine.shadow_inferences()));
  put("violations", static_cast<double>(violations));
  put("versions_live_after_drain", static_cast<double>(live));
  if (!p.scripted) {
    rep.config("batch", static_cast<double>(k_batch));
    rep.config("min_switches", static_cast<double>(k_min_switches));
    rep.config("sweep_seconds", sweep_seconds);
    put("baseline_routes_per_sec", baseline_rps);
    put("batched_routes_per_sec", batched_rps);
    put("batched_speedup_vs_scalar", ratio(batched_rps, baseline_rps));
    put("speedup_vs_single_thread", speedup);
    for (const auto& [n, pt] : curve) {
      const double x = static_cast<double>(n);
      rep.add_point("scaling_routes_per_sec", x, pt.rps);
      rep.add_point("scaling_speedup", x, ratio(pt.rps, baseline_rps));
      rep.add_point("scaling_l1_hit_rate", x, pt.l1_hit_rate);
      rep.add_point("scaling_locks_per_route", x, pt.locks_per_route);
    }
  } else {
    const core::shadow_config& sh = engine.config().shadow;
    rep.config("divergence_threshold", sh.divergence_threshold);
    rep.config("min_samples", static_cast<double>(sh.min_samples));
    put("gate_blocks", static_cast<double>(script.blocked));
    put("admitted_after_block",
        static_cast<double>(script.admitted_after_block));
    for (std::size_t m = 0; m < p.models; ++m) {
      rep.add_point(
          "per_model_switches", static_cast<double>(m),
          static_cast<double>(
              engine.snapshots(static_cast<core::model_key>(m)).switches()));
    }
    for (const gate_row& g : script.gates) {
      rep.add_point("gate_mean_divergence", static_cast<double>(g.model),
                    g.verdict.mean_divergence);
    }
  }
  if (p.stall || p.storm || p.bad) {
    rep.config_bool("inject_stall", p.stall);
    rep.config_bool("inject_switch_storm", p.storm);
    rep.config_bool("inject_bad_switch", p.bad);
    rep.config("inject_clean_prefix_seconds", clean_end);
  }
  if (p.bad) {
    rep.config("probation_windows", static_cast<double>(p.probation_windows));
    put("rollbacks", static_cast<double>(engine.rollbacks()));
    put("rollback_noops", static_cast<double>(engine.rollback_noops()));
    put("bad_switch_gen", static_cast<double>(bad.promoted_gen));
    put("bad_switch_prev_gen", static_cast<double>(bad.held_gen));
  }
  for (std::size_t i = 0; i < st.outcomes.size(); ++i) {
    rep.add_point("per_worker_routes_per_sec", static_cast<double>(i),
                  static_cast<double>(st.outcomes[i].routes) / st.elapsed);
  }
  // Live telemetry: whole-run percentiles and the per-window series.
  metrics::latency_snapshot lat;
  engine.latency_snapshot_into(lat);
  const double p50 = lat.quantile(0.50), p99 = lat.quantile(0.99),
               p999 = lat.quantile(0.999);
  if (lat.total() != 0) {
    put("latency_samples", static_cast<double>(lat.total()));
    put("latency_p50_ns", p50);
    put("latency_p99_ns", p99);
    put("latency_p999_ns", p999);
    put("latency_mean_ns", lat.approx_mean_ns());
  }
  const std::vector<rt::stats_window> windows = sampler.windows();
  for (const rt::stats_window& w : windows) {
    rep.add_point("ts_routes_per_sec", w.t_s, w.routes_per_sec);
    if (w.samples != 0) {
      rep.add_point("ts_p50_ns", w.t_s, w.p50_ns);
      rep.add_point("ts_p99_ns", w.t_s, w.p99_ns);
      rep.add_point("ts_p999_ns", w.t_s, w.p999_ns);
    }
    if (w.routes != 0) {
      rep.add_point("ts_l1_hit_rate", w.t_s, w.l1_hit_rate);
      rep.add_point("ts_locks_per_route", w.t_s, w.locks_per_route);
    }
    // The series the retired_leak rule watches: post-mortems of a missed or
    // spurious leak verdict need the per-window live count.
    rep.add_point("ts_versions_live", w.t_s,
                  static_cast<double>(w.versions_live));
    rep.add_point("ts_versions_retired", w.t_s,
                  static_cast<double>(w.versions_retired));
  }
  put("stats_windows", static_cast<double>(windows.size()));
  for (auto& [name, value] : reg.scalars()) put(std::move(name), value);
  rep.summaries(summary);
  const std::string path = rep.write();
  if (!path.empty()) std::printf("[json] %s\n", path.c_str());

  // INCIDENT_<label>.json is rewritten on every fire and absent after a
  // clean run.
  const std::vector<rt::incident_record> incidents = watchdog.incidents();
  const std::string incident_path = watchdog.write_incidents();
  if (!incident_path.empty()) {
    std::printf("[incidents] %s\n", incident_path.c_str());
  }

  // ---- REPORT_<label>.html ---------------------------------------------
  {
    report::flight_report fr;
    fr.title = std::string{"LiteFlow flight report: rt harness "} +
               std::string{p.name};
    fr.summary.emplace_back("workers", std::to_string(p.workers));
    fr.summary.emplace_back("models", std::to_string(p.models));
    fr.summary.emplace_back("routes/s",
                            std::to_string(static_cast<long long>(st.rps)));
    fr.summary.emplace_back("switches", std::to_string(engine.switches()));
    if (p.scripted) {
      fr.summary.emplace_back("gate blocked", std::to_string(script.blocked));
      fr.summary.emplace_back("admitted after block",
                              std::to_string(script.admitted_after_block));
    }
    fr.summary.emplace_back("violations", std::to_string(violations));
    if (lat.total() != 0) {
      fr.summary.emplace_back(
          "latency p50/p99/p999 (ns)",
          std::to_string(static_cast<long long>(p50)) + " / " +
              std::to_string(static_cast<long long>(p99)) + " / " +
              std::to_string(static_cast<long long>(p999)));
    }
    fr.summary.emplace_back("watchdog incidents",
                            std::to_string(incidents.size()));
    // Incidents and gate rulings mark both charts, so a regression, its
    // detection and the switch behind it read off one time axis.
    std::vector<report::marker> markers = watchdog.incident_markers();
    for (const gate_row& g : script.gates) {
      markers.push_back({g.t,
                         std::string{g.rollback   ? "rollback m"
                                     : g.admitted ? "admit m"
                                                  : "block m"} +
                             std::to_string(g.model),
                         !g.admitted || g.rollback});
    }
    report::series_data rps{"routes/s", {}};
    report::series_data p50s{"p50", {}}, p99s{"p99", {}}, p999s{"p999", {}};
    for (const rt::stats_window& w : windows) {
      rps.points.emplace_back(w.t_s, w.routes_per_sec);
      if (w.samples == 0) continue;
      p50s.points.emplace_back(w.t_s, w.p50_ns);
      p99s.points.emplace_back(w.t_s, w.p99_ns);
      p999s.points.emplace_back(w.t_s, w.p999_ns);
    }
    fr.charts.push_back({"throughput", "Routes per second (per sampler window)",
                         "routes/s", {std::move(rps)}, markers, {}});
    fr.charts.push_back(
        {"latency_percentiles",
         "Route latency percentiles (per sampler window)", "ns",
         {std::move(p50s), std::move(p99s), std::move(p999s)}, markers, {}});
    if (!incidents.empty()) fr.tables.push_back(watchdog.incidents_table());
    if (p.scripted) {
      report::table_data gates;
      gates.id = "gates";
      gates.title = "Shadow gate decisions";
      gates.caption =
          "Each row is one switch that went through the shadow divergence "
          "gate.  A rolled-back row is a gate-aware rollback: the previous "
          "active re-promoted out of its probation hold.";
      gates.columns = {"t (s)",   "domain model", "candidate", "version",
                       "outcome", "samples",      "mean div",  "max div"};
      for (const gate_row& g : script.gates) {
        const char* outcome = g.rollback   ? "rolled-back"
                              : g.admitted ? "admitted"
                                           : "blocked";
        // The candidate generation is the version (see gate_row).
        gates.rows.push_back(
            {num(g.t), std::to_string(g.model), std::to_string(g.version),
             std::to_string(g.version), outcome,
             std::to_string(g.verdict.samples),
             num(g.verdict.mean_divergence), num(g.verdict.max_divergence)});
        gates.row_classes.push_back(std::string{"gate-"} +
                                    (g.rollback   ? "rollback"
                                     : g.admitted ? "admitted"
                                                  : "blocked"));
      }
      fr.tables.push_back(std::move(gates));
    }
    if (lat.total() != 0) {
      fr.histograms.push_back(report::make_histogram_data(
          "route latency (ns)", lat, lat.approx_mean_ns()));
    }
    const std::string html = report::write_flight_report(fr, label);
    if (!html.empty()) std::printf("[html] %s\n", html.c_str());
  }

  // ---- verdict -----------------------------------------------------------
  // Every profile: the §3.4 invariant held and pin-gated retirement leaked
  // nothing (after the drain only each model's final active and a possibly
  // uninstalled standby may be alive).
  v.expect(violations == 0, "%" PRIu64 " flow-consistency violations",
           violations);
  v.expect(live <= 2 * p.models,
           "%" PRIu64 " versions leaked past the drain", live);
  if (!p.scripted) {
    v.expect(engine.switches() >= k_min_switches,
             "only %" PRIu64 " switches (target %zu)", engine.switches(),
             k_min_switches);
    v.expect(engine.switch_noops() != 0,
             "no-op switch path never exercised (writer bug)");
  } else {
    v.expect(min_model_switches >= 2, "a model switched fewer than 2 times");
    v.expect(script.blocked != 0 && script.admitted_after_block != 0,
             "gate never blocked / never re-admitted");
    v.expect(engine.shadow_inferences() > 0, "no shadow inference ran");
  }
  if (p.floors) {
    // The per-worker L1 and seqlock read path must make 4 workers at least
    // break even against one (before the lock-pressure work this sat at
    // ~0.7x).  Only a host with 4 CPUs to give says anything about that; on
    // a smaller one the workers timeshare.
    if (host_cpus >= 4) {
      v.expect(speedup >= 1.0, "4 workers ran %.2fx single-thread (< 1.0)",
               speedup);
    }
    v.expect(st.locks_per_route < 0.1,
             "%.4f lock acquisitions per route (shard spinlock on the route "
             "path)",
             st.locks_per_route);
    v.expect(ratio(batched_rps, baseline_rps) > 0.0,
             "no batched-vs-scalar ratio measured");
    v.expect(lat.total() > 0 && 0.0 < p50 && p50 <= p99 && p99 <= p999,
             "whole-run latency %" PRIu64 " samples, p50/p99/p999 %.0f / "
             "%.0f / %.0f",
             lat.total(), p50, p99, p999);
    std::size_t busy = 0, sampled = 0;
    for (const rt::stats_window& w : windows) {
      busy += w.routes_per_sec > 0.0;
      sampled += w.samples != 0;
      v.expect(
          w.samples == 0 || (w.p50_ns <= w.p99_ns && w.p99_ns <= w.p999_ns),
          "window at %.2fs: p50/p99/p999 %.0f / %.0f / %.0f unordered", w.t_s,
          w.p50_ns, w.p99_ns, w.p999_ns);
    }
    v.expect(windows.size() >= 2 && busy >= 2 && sampled >= 1,
             "%zu stats windows, %zu with traffic, %zu with latency samples "
             "(want >= 2, >= 2, >= 1)",
             windows.size(), busy, sampled);
  }
  if (p.silent) {
    // Zero false positives, down to the artifact shape: probation is off,
    // so the rollback machinery must leave no key behind at all.
    const std::string incident_file =
        bench::output_dir() + "/INCIDENT_" + label + ".json";
    v.expect(incidents.empty(), "watchdog fired %zu incident(s) on a clean run",
             incidents.size());
    v.expect(!std::filesystem::exists(incident_file), "%s exists",
             incident_file.c_str());
    std::size_t watchdog_keys = 0;
    for (const auto& [key, value] : summary) {
      if (key.starts_with("rt.watchdog.")) {
        ++watchdog_keys;
        v.expect(value == 0.0, "%s = %g on a clean run", key.c_str(), value);
      }
      v.expect(key.find("rollback") == std::string::npos &&
                   !key.starts_with("bad_switch"),
               "clean run reports %s", key.c_str());
    }
    v.expect(watchdog_keys != 0, "no rt.watchdog.* scalars in the summary");
  }
  if (p.stall || p.storm || p.bad) {
    v.expect(!incident_path.empty(), "no INCIDENT_%s.json written", label);
  }
  if (!p.scripted && (p.stall || p.storm || p.bad)) {
    // True positives, and nothing in the clean prefix (small slack: the
    // sampler clock starts a beat before the writer's).
    std::uint64_t spikes = 0, leaks = 0, early = 0;
    for (const rt::incident_record& inc : incidents) {
      spikes += inc.kind == rt::anomaly_kind::p999_spike;
      leaks += inc.kind == rt::anomaly_kind::retired_leak;
      early += inc.t_s < clean_end - 0.1;
    }
    v.expect(!p.stall || spikes != 0,
             "injected stall produced no p999_spike incident");
    // The storm's scheduler-independent signature is reclamation losing to
    // the flip rate.  An L1 hit-rate collapse only shows with real
    // parallelism (on one CPU the flips batch into scheduler quanta and
    // workers refill the L1 between them), so it is not asserted.
    v.expect(!p.storm || leaks != 0,
             "injected switch storm produced no retired_leak incident");
    v.expect(early == 0,
             "%" PRIu64 " incident(s) fired during the clean prefix (< %.2fs)",
             early, clean_end);
  }
  if (p.stall || p.storm) {
    // Every dump an incident references must exist and hold something.
    std::size_t dumps = 0;
    for (const rt::incident_record& inc : incidents) {
      if (inc.dump_path.empty()) continue;
      ++dumps;
      std::error_code ec;
      const auto size = std::filesystem::file_size(inc.dump_path, ec);
      v.expect(!ec && size > 0, "dump %s missing or empty",
               inc.dump_path.c_str());
    }
    v.expect(dumps != 0, "no incident references a black-box dump");
  }
  if (p.bad) {
    // The whole detect -> classify -> rollback loop closed in process: the
    // incident that named the bad gen rolled back to the held one, exactly
    // once, and new flows route the re-promoted gen again.
    v.expect(bad.held_gen != 0 && bad.promoted_gen > bad.held_gen,
             "bad switch opened no probation hold (gen %" PRIu64
             ", prev %" PRIu64 ")",
             bad.promoted_gen, bad.held_gen);
    v.expect(std::ranges::any_of(incidents,
                                 [&](const rt::incident_record& inc) {
                                   return inc.post_switch &&
                                          inc.suspect_gen == bad.promoted_gen &&
                                          inc.rollback_gen == bad.held_gen;
                                 }),
             "no post_switch_regression incident named gen %" PRIu64
             " and rolled back to gen %" PRIu64,
             bad.promoted_gen, bad.held_gen);
    v.expect(engine.rollbacks() == 1,
             "%" PRIu64 " rollbacks (expected exactly 1)", engine.rollbacks());
    v.expect(probe_gen == bad.held_gen,
             "readers see gen %" PRIu64 " after the rollback, want %" PRIu64,
             probe_gen, bad.held_gen);
  }
  if (p.bad && !p.scripted) {
    // The tail p999 must drop back to the clean-prefix level.  The heavy
    // net is ~250x the MACs, so recovered and still degraded sit orders of
    // magnitude apart; 5x plus scheduler slack is generous.
    std::vector<double> clean_p999, tail_p999;
    for (const rt::stats_window& w : windows) {
      if (w.samples != 0 && w.t_s < clean_end - 0.1) {
        clean_p999.push_back(w.p999_ns);
      }
    }
    for (auto it = windows.rbegin();
         it != windows.rend() && tail_p999.size() < 3; ++it) {
      if (it->samples != 0) tail_p999.push_back(it->p999_ns);
    }
    if (clean_p999.empty() || tail_p999.empty()) {
      v.expect(false, "not enough stats windows for the p999 recovery check");
    } else {
      const double clean_med = median(clean_p999);
      const double tail_med = median(tail_p999);
      v.expect(tail_med <= 5.0 * clean_med + 50e3,
               "post-rollback p999 %.0fns never recovered (clean prefix "
               "median %.0fns)",
               tail_med, clean_med);
      std::printf("bad switch: gen %" PRIu64 " rolled back to gen %" PRIu64
                  ", tail p999 %.0fns vs clean %.0fns\n",
                  bad.promoted_gen, bad.held_gen, tail_med, clean_med);
    }
  }
  if (!v.ok) {
    // Post-mortem before the nonzero exit: the black-box rings hold the
    // events leading up to a violation, and the stats text the final state.
    if (engine.recorder() != nullptr) {
      const std::string bb = engine.recorder()->dump(label);
      if (!bb.empty()) std::printf("[blackbox] %s\n", bb.c_str());
    }
    if (sampler.write_text()) {
      std::printf("[stats] %s\n", sampler.config().text_out.c_str());
    }
  }
  std::printf("rt harness %s: %s\n", p.name.data(), v.ok ? "PASS" : "FAIL");
  return v.ok ? 0 : 1;
}
