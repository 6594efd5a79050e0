// Micro-benchmarks (google-benchmark) for the snapshot pipeline itself:
// FP32 forward vs integer-interpreter inference (legacy allocating path vs
// the arena-packed zero-allocation fast path) vs real GCC-compiled snapshot
// inference, plus the engine's one-shard flow cache, a default engine's
// set-up and L2 route, and snapshot generation (quantize + translate) with
// its freeze/load/quantize/emit stages.  These back the Fig. 15 latency
// story with real wall-clock numbers on this machine.
//
// On exit, the fast-path-relevant results are also written to
// BENCH_fastpath.json via the shared reporter (honors LF_BENCH_OUT; see
// EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include <iostream>
#include <map>
#include <memory>
#include <vector>

#include "codegen/compiled_snapshot.hpp"
#include "codegen/snapshot.hpp"
#include "core/adaptation_monitor.hpp"
#include "nn/mlp.hpp"
#include "nn/serialize.hpp"
#include "quant/quantizer.hpp"
#include "rl/link_env.hpp"
#include "rt/anomaly_watchdog.hpp"
#include "rt/engine.hpp"
#include "rt/flight_recorder.hpp"
#include "rt/sharded_flow_cache.hpp"
#include "util/bench_report.hpp"
#include "util/latency_histogram.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace {

using namespace lf;

nn::mlp& aurora() {
  static rng g{7};
  static nn::mlp net = nn::make_aurora_net(g);
  return net;
}

nn::mlp& ffnn() {
  static rng g{8};
  static nn::mlp net = nn::make_ffnn_flow_size_net(g);
  return net;
}

nn::mlp& lb_mlp() {
  static rng g{9};
  static nn::mlp net = nn::make_lb_mlp_net(g);
  return net;
}

void bm_float_forward_aurora(benchmark::State& state) {
  auto& net = aurora();
  std::vector<double> x(net.input_size(), 0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(x));
  }
}
BENCHMARK(bm_float_forward_aurora);

void bm_quantized_infer_aurora(benchmark::State& state) {
  static const auto snap = codegen::generate_snapshot(aurora(), "a", 1);
  std::vector<fp::s64> x(snap.input_size(), 250);
  for (auto _ : state) {
    benchmark::DoNotOptimize(snap.program.infer(x));
  }
}
BENCHMARK(bm_quantized_infer_aurora);

void bm_quantized_infer_ffnn(benchmark::State& state) {
  static const auto snap = codegen::generate_snapshot(ffnn(), "f", 1);
  std::vector<fp::s64> x(snap.input_size(), 500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(snap.program.infer(x));
  }
}
BENCHMARK(bm_quantized_infer_ffnn);

void bm_quantized_infer_into_aurora(benchmark::State& state) {
  static const auto snap = codegen::generate_snapshot(aurora(), "a", 1);
  std::vector<fp::s64> x(snap.input_size(), 250);
  std::vector<fp::s64> out(snap.output_size());
  quant::inference_scratch scratch;
  scratch.reserve(snap.program);
  for (auto _ : state) {
    snap.program.infer_into(x, out, scratch);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(bm_quantized_infer_into_aurora);

void bm_quantized_infer_into_ffnn(benchmark::State& state) {
  static const auto snap = codegen::generate_snapshot(ffnn(), "f", 1);
  std::vector<fp::s64> x(snap.input_size(), 500);
  std::vector<fp::s64> out(snap.output_size());
  quant::inference_scratch scratch;
  scratch.reserve(snap.program);
  for (auto _ : state) {
    snap.program.infer_into(x, out, scratch);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(bm_quantized_infer_into_ffnn);

/// 4096 input rows drawn from [-900, 900], as perfbench's flow_churn and
/// lb_batch inputs are, so relu signs vary from row to row.
constexpr std::size_t k_pool_rows = 4096;

std::vector<fp::s64> input_pool(std::size_t width) {
  rng g{0x9001};
  std::vector<fp::s64> pool(k_pool_rows * width);
  for (auto& v : pool) v = g.uniform_int(-900, 900);
  return pool;
}

/// 4096 Aurora observations (io_scale 1000) of rl::link_env under random
/// rate actions, skipping each episode's zero-padded history, as perfbench's
/// cc_adapt inputs are: pre-activations spread over the tanh tables instead
/// of repeating one lookup.
std::vector<fp::s64> link_env_pool() {
  rng g{0x9002};
  rl::link_env env{rl::link_env_config{}, g.split()};
  const std::size_t history = env.config().history;
  const std::size_t size = k_pool_rows * env.observation_size();
  std::vector<fp::s64> pool;
  pool.reserve(size);
  env.reset();
  std::size_t step = 0;
  while (pool.size() < size) {
    const double action[1] = {g.uniform(-1.0, 1.0)};
    const rl::step_result res = env.step(action);
    if (++step > history) {
      for (const double v : res.observation) {
        pool.push_back(fp::sat_quantize(v * 1000.0));
      }
    }
    if (res.done) {
      env.reset();
      step = 0;
    }
  }
  return pool;
}

/// One infer_into per iteration on the pool's next row.
void infer_into_pool(benchmark::State& state, const quant::quantized_mlp& q,
                     const std::vector<fp::s64>& pool) {
  const std::size_t in = q.input_size();
  std::vector<fp::s64> out(q.output_size());
  quant::inference_scratch scratch;
  scratch.reserve(q);
  std::size_t r = 0;
  for (auto _ : state) {
    q.infer_into({pool.data() + r * in, in}, out, scratch);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    r = (r + 1) & (k_pool_rows - 1);
  }
}

/// One infer_batch_into of the pool's next k rows per iteration.
void infer_batch_into_pool(benchmark::State& state,
                           const quant::quantized_mlp& q,
                           const std::vector<fp::s64>& pool,
                           std::size_t k = 64) {
  const std::size_t in = q.input_size();
  std::vector<fp::s64> outs(k * q.output_size());
  quant::inference_scratch scratch;
  std::size_t r = 0;
  for (auto _ : state) {
    q.infer_batch_into({pool.data() + r * in, k * in}, k, outs, scratch);
    benchmark::DoNotOptimize(outs.data());
    benchmark::ClobberMemory();
    r = r + 2 * k <= k_pool_rows ? r + k : 0;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(k));
}

void bm_quantized_infer_into_aurora_pool(benchmark::State& state) {
  static const auto snap = codegen::generate_snapshot(aurora(), "a", 1);
  infer_into_pool(state, snap.program, link_env_pool());
}
BENCHMARK(bm_quantized_infer_into_aurora_pool);

/// Aurora versions cc_adapt keeps live at once (perfbench's
/// rt.versions_live_max), each pinned by some flow.
constexpr std::size_t k_live_versions = 120;

/// _aurora_pool spread over k_live_versions programs: each iteration runs
/// the pool's next row on a seeded pick among Aurora programs whose weights
/// differ by small seeded noise, as routes of flows pinned to different
/// versions of one adapting model do.  The difference to _aurora_pool is
/// the cost of reading parameters from 120 arenas instead of one.
void bm_quantized_infer_into_aurora_versions(benchmark::State& state) {
  static const std::vector<quant::quantized_mlp> programs = [] {
    rng g{0x9003};
    std::vector<quant::quantized_mlp> v;
    v.reserve(k_live_versions);
    for (std::size_t i = 0; i < k_live_versions; ++i) {
      nn::mlp net = aurora();
      for (std::size_t l = 0; l < net.layer_count(); ++l) {
        for (double& w : net.layer(l).weights()) w += g.uniform(-0.01, 0.01);
      }
      v.push_back(quant::quantize(net));
    }
    return v;
  }();
  const std::vector<fp::s64> pool = link_env_pool();
  rng g{0x9004};
  std::vector<std::size_t> pick(k_pool_rows);
  for (auto& p : pick) {
    p = static_cast<std::size_t>(
        g.uniform_int(0, static_cast<std::int64_t>(k_live_versions) - 1));
  }
  const std::size_t in = programs.front().input_size();
  std::vector<fp::s64> out(programs.front().output_size());
  quant::inference_scratch scratch;
  scratch.reserve(programs.front());
  std::size_t r = 0;
  for (auto _ : state) {
    programs[pick[r]].infer_into({pool.data() + r * in, in}, out, scratch);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    r = (r + 1) & (k_pool_rows - 1);
  }
}
BENCHMARK(bm_quantized_infer_into_aurora_versions);

void bm_quantized_infer_into_lb_mlp(benchmark::State& state) {
  static const auto snap = codegen::generate_snapshot(lb_mlp(), "l", 1);
  infer_into_pool(state, snap.program, input_pool(snap.input_size()));
}
BENCHMARK(bm_quantized_infer_into_lb_mlp);

void bm_quantized_infer_batch_into_aurora(benchmark::State& state) {
  static const auto snap = codegen::generate_snapshot(aurora(), "a", 1);
  infer_batch_into_pool(state, snap.program, link_env_pool());
}
BENCHMARK(bm_quantized_infer_batch_into_aurora);

void bm_quantized_infer_batch_into_ffnn(benchmark::State& state) {
  static const auto snap = codegen::generate_snapshot(ffnn(), "f", 1);
  infer_batch_into_pool(state, snap.program, input_pool(snap.input_size()));
}
BENCHMARK(bm_quantized_infer_batch_into_ffnn);

/// k rows per call: 64 is lb_batch's batch, 1-3 are the runs a switch
/// drain feeds, 3 and 4 straddle the blocks' break-even (k_lanes_min in
/// quantized_mlp.cpp), and 5 and 8 are a short and a whole block.
void bm_quantized_infer_batch_into_lb_mlp(benchmark::State& state) {
  static const auto snap = codegen::generate_snapshot(lb_mlp(), "l", 1);
  infer_batch_into_pool(state, snap.program, input_pool(snap.input_size()),
                        static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(bm_quantized_infer_batch_into_lb_mlp)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(5)
    ->Arg(8)
    ->Arg(64);

// ------------------------------------------------------------ flow cache --
//
// The engine's cache as the simulated stack runs it: one shard, one reader,
// entries pinning one version.  Inserts run in a guard per iteration, as
// routes do, so the tables a rehash retires are reclaimed as the loop goes.

struct one_shard_cache {
  explicit one_shard_cache(std::size_t capacity)
      : cache{1, capacity, 30.0, epochs} {
    handle.install_standby(codegen::generate_snapshot(ffnn(), "f", 1));
    handle.switch_active();
  }
  ~one_shard_cache() { cache.clear(handle); }

  /// Insert `flow` pinned to the active version (the miss path's pin
  /// transfer); `sweep` buckets of the idle sweep ride along.
  void insert(netsim::flow_id_t flow, std::size_t sweep) {
    cache.insert(flow, handle.pin_active(), 0.0, sweep, handle);
  }

  rt::epoch_domain epochs{1};
  rt::snapshot_handle handle{epochs};
  rt::sharded_flow_cache cache;
  std::size_t slot = epochs.register_reader();
};

void bm_flow_cache_hit(benchmark::State& state) {
  one_shard_cache c{1024};
  rt::epoch_domain::guard g{c.epochs, c.slot};
  for (netsim::flow_id_t f = 0; f < 512; ++f) c.insert(f, 0);
  netsim::flow_id_t f = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.cache.lookup(f, 1.0));
    f = (f + 1) & 511;
  }
}
BENCHMARK(bm_flow_cache_hit);

void bm_flow_cache_churn(benchmark::State& state) {
  // Steady-state insert + FIN-erase cycle: the pattern a busy datapath sees.
  one_shard_cache c{1024};
  netsim::flow_id_t next = 0;
  for (; next < 512; ++next) {
    rt::epoch_domain::guard g{c.epochs, c.slot};
    c.insert(next, 0);
  }
  for (auto _ : state) {
    rt::epoch_domain::guard g{c.epochs, c.slot};
    c.cache.erase(next - 512, c.handle);
    c.insert(next, 0);
    ++next;
  }
}
BENCHMARK(bm_flow_cache_churn);

void bm_flow_cache_step_evict(benchmark::State& state) {
  // The churn cycle with the insert-driven idle sweep (2 buckets, as the
  // engine's miss path runs it) over a 2048-flow table of fresh entries.
  one_shard_cache c{4096};
  netsim::flow_id_t next = 0;
  for (; next < 2048; ++next) {
    rt::epoch_domain::guard g{c.epochs, c.slot};
    c.insert(next, 0);
  }
  for (auto _ : state) {
    rt::epoch_domain::guard g{c.epochs, c.slot};
    c.cache.erase(next - 2048, c.handle);
    c.insert(next, 2);
    ++next;
  }
}
BENCHMARK(bm_flow_cache_step_evict);

// The benches above build one-shard caches at an explicit capacity.  These
// two build the engine as its callers do, from a default engine_config
// (next_pow2(2 x 64 workers) = 128 shards), so the cache's default
// footprint shows.

void bm_engine_setup_default(benchmark::State& state) {
  // A default engine plus one registered worker; each iteration also tears
  // the engine down.
  for (auto _ : state) {
    rt::datapath_engine e;
    benchmark::DoNotOptimize(&e.register_worker());
  }
}
BENCHMARK(bm_engine_setup_default);

void bm_engine_route_l2_default(benchmark::State& state) {
  // Route without inference on a default engine with the L1 off and 8192
  // live flows (flow_churn's count), so every route is an L2 probe hit.
  rt::engine_config cfg;
  cfg.l1_slots = 0;
  rt::datapath_engine e{cfg};
  rt::worker_handle& w = e.register_worker();
  e.install(codegen::generate_snapshot(ffnn(), "f", 1));
  e.switch_active();
  constexpr netsim::flow_id_t k_flows = 8192;
  for (netsim::flow_id_t f = 0; f < k_flows; ++f) e.route(w, f, 0.0, {}, {});
  netsim::flow_id_t f = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.route(w, f, 1.0, {}, {}));
    f = (f + 1) & (k_flows - 1);
  }
}
BENCHMARK(bm_engine_route_l2_default);

void bm_compiled_infer_aurora(benchmark::State& state) {
  static const auto snap = codegen::generate_snapshot(aurora(), "a", 1);
  if (!codegen::compiler_available()) {
    state.SkipWithError("gcc not available");
    return;
  }
  static const auto compiled = codegen::compiled_snapshot::compile(snap.c_source);
  std::vector<fp::s64> x(snap.input_size(), 250);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled.infer(x, snap.output_size()));
  }
}
BENCHMARK(bm_compiled_infer_aurora);

void bm_compiled_infer_ffnn(benchmark::State& state) {
  static const auto snap = codegen::generate_snapshot(ffnn(), "f", 1);
  if (!codegen::compiler_available()) {
    state.SkipWithError("gcc not available");
    return;
  }
  static const auto compiled = codegen::compiled_snapshot::compile(snap.c_source);
  std::vector<fp::s64> x(snap.input_size(), 500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled.infer(x, snap.output_size()));
  }
}
BENCHMARK(bm_compiled_infer_ffnn);

void bm_snapshot_generation_aurora(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(codegen::generate_snapshot(aurora(), "a", 1));
  }
}
BENCHMARK(bm_snapshot_generation_aurora);

// The update path's stages one at a time: freeze and load (the §4.1
// hand-off), then generate_snapshot's two halves, quantize and C emission.
void bm_freeze_aurora(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::save_mlp_to_string(aurora()));
  }
}
BENCHMARK(bm_freeze_aurora);

void bm_load_aurora(benchmark::State& state) {
  const std::string frozen = nn::save_mlp_to_string(aurora());
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::load_mlp_from_string(frozen));
  }
}
BENCHMARK(bm_load_aurora);

// Quantize alone, with the previous program still alive as it is on an
// update (the engine holds the live versions), so the shared tanh table is
// looked up, not rebuilt.
void bm_quantize_aurora(benchmark::State& state) {
  const auto live = quant::quantize(aurora());
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::quantize(aurora()));
  }
}
BENCHMARK(bm_quantize_aurora);

void bm_emit_c_source_aurora(benchmark::State& state) {
  const auto program = quant::quantize(aurora());
  const codegen::emit_options options{"a", 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(codegen::emit_c_source(program, options));
  }
}
BENCHMARK(bm_emit_c_source_aurora);

// ---------------------------------------------------------------- tracer --

// The instrumented components pay one branch per emit when tracing is off
// (the ring's buffer is empty).  These benches quantify that: the disabled
// variant must track bm_quantized_infer_into_aurora, and the enabled one
// bounds the per-event cost when a collector has switched the ring on.

void bm_traced_infer_into_disabled(benchmark::State& state) {
  static const auto snap = codegen::generate_snapshot(aurora(), "a", 1);
  trace::ring ring{"bench"};  // never attached: emit() is a single branch
  std::vector<fp::s64> x(snap.input_size(), 250);
  std::vector<fp::s64> out(snap.output_size());
  quant::inference_scratch scratch;
  scratch.reserve(snap.program);
  double t = 0.0;
  for (auto _ : state) {
    ring.emit(t, trace::event_type::inference_begin, 1, 1);
    snap.program.infer_into(x, out, scratch);
    ring.emit(t, trace::event_type::inference_end, 1, 1);
    benchmark::DoNotOptimize(out.data());
    t += 1e-6;
  }
}
BENCHMARK(bm_traced_infer_into_disabled);

void bm_traced_infer_into_enabled(benchmark::State& state) {
  static const auto snap = codegen::generate_snapshot(aurora(), "a", 1);
  trace::ring ring{"bench"};
  ring.enable(4096);
  std::vector<fp::s64> x(snap.input_size(), 250);
  std::vector<fp::s64> out(snap.output_size());
  quant::inference_scratch scratch;
  scratch.reserve(snap.program);
  double t = 0.0;
  for (auto _ : state) {
    ring.emit(t, trace::event_type::inference_begin, 1, 1);
    snap.program.infer_into(x, out, scratch);
    ring.emit(t, trace::event_type::inference_end, 1, 1);
    benchmark::DoNotOptimize(out.data());
    t += 1e-6;
  }
  benchmark::DoNotOptimize(ring.emitted());
}
BENCHMARK(bm_traced_infer_into_enabled);

// The adaptation monitor is attached the same way: components call its
// hooks through a pointer that stays null unless an enabled monitor was
// registered.  The disabled variant measures the early-return guard; the
// enabled ones bound the per-sync-check cost (five series appends plus both
// alert rules) and the cheaper per-batch staleness-rule pass.

core::check_observation bench_check_observation() {
  core::check_observation obs;
  obs.decision.necessary = true;
  obs.decision.converged = false;
  obs.decision.fidelity.min_loss = 0.02;
  obs.decision.fidelity.mean_loss = 0.05;
  obs.decision.fidelity.max_loss = 0.09;
  obs.threshold = 0.1;
  obs.stability_spread = 0.4;
  obs.version = 3;
  return obs;
}

void bm_monitor_sync_check_disabled(benchmark::State& state) {
  core::adaptation_monitor mon{};  // enabled = false: hook early-returns
  const auto obs = bench_check_observation();
  double t = 0.0;
  for (auto _ : state) {
    mon.on_sync_check(t, obs);
    t += 1e-3;
  }
  benchmark::DoNotOptimize(mon.checks());
}
BENCHMARK(bm_monitor_sync_check_disabled);

void bm_monitor_sync_check_enabled(benchmark::State& state) {
  // Each enabled check appends a point to five time series.  A fresh
  // monitor every k_checks_per_monitor checks, built outside the timed
  // region, keeps the series short, so the bench times the same appends
  // however many iterations the library picks.
  constexpr std::size_t k_checks_per_monitor = 4096;
  auto mon = std::make_unique<core::adaptation_monitor>(true);
  const auto obs = bench_check_observation();
  std::size_t checks = 0;
  double t = 0.0;
  for (auto _ : state) {
    if (checks == k_checks_per_monitor) {
      state.PauseTiming();
      mon = std::make_unique<core::adaptation_monitor>(true);
      checks = 0;
      state.ResumeTiming();
    }
    mon->on_sync_check(t, obs);
    ++checks;
    t += 1e-3;
  }
  benchmark::DoNotOptimize(mon->checks());
}
BENCHMARK(bm_monitor_sync_check_enabled);

void bm_monitor_batch_rules_enabled(benchmark::State& state) {
  core::adaptation_monitor mon{true};
  double t = 0.0;
  for (auto _ : state) {
    mon.on_batch(t);  // rule pass only, no series append
    t += 1e-3;
  }
  benchmark::DoNotOptimize(mon.total_alerts());
}
BENCHMARK(bm_monitor_batch_rules_enabled);

// The rt watchdog's per-window cost on the sampler thread: one healthy
// window through all six rules (shadow evidence present), warmed up first
// so every rule computes its threshold.  No engine: nothing fires.
void bm_watchdog_observe(benchmark::State& state) {
  rt::anomaly_watchdog wd{{}};
  rt::stats_window w;
  w.dt_s = 0.1;
  w.routes = 1000;
  w.routes_per_sec = 1e4;
  w.samples = 1000;
  w.p999_ns = 1000.0;
  w.l1_hit_rate = 0.9;
  w.locks_per_route = 0.01;
  w.versions_live = 4;
  for (int i = 0; i < 8; ++i) wd.observe(w, 1e-4);
  for (auto _ : state) {
    w.t_s += 0.1;
    wd.observe(w, 1e-4);
  }
  benchmark::DoNotOptimize(wd.incident_count());
}
BENCHMARK(bm_watchdog_observe);

void bm_trace_ring_emit(benchmark::State& state) {
  // Raw per-event cost with the ring hot: the head claim and the slot's
  // tag-bracketed stores into a wrapped slot.
  trace::ring ring{"bench"};
  ring.enable(4096);
  double t = 0.0;
  for (auto _ : state) {
    ring.emit(t, trace::event_type::pkt_enqueue, 42, 1500);
    t += 1e-9;
  }
  benchmark::DoNotOptimize(ring.emitted());
}
BENCHMARK(bm_trace_ring_emit);

// ---------------------------------------------------- rt live telemetry --

// The rt engine's route path pays, per route:
//   latency off      one predictable branch (bm_latency_route_disabled)
//   latency sampled  branch + tick; clock reads 1-in-2^shift
//   latency on       two steady_clock reads + one histogram record
// and, for the flight recorder, a null check (off) or a sampled ring emit.
// The *_record bench isolates the histogram store itself (the <= 5 ns
// budget); the route-shaped ones measure the guard structure exactly as
// engine.cpp writes it, with the enable flag laundered through
// DoNotOptimize so the dead branch is not folded away.

void bm_latency_record(benchmark::State& state) {
  metrics::latency_histogram h;
  std::uint64_t ns = 0;
  for (auto _ : state) {
    h.record(ns);
    ns = (ns + 147) & 1023;  // walk a handful of buckets, near-free update
  }
  metrics::latency_snapshot s;
  h.snapshot_into(s);
  benchmark::DoNotOptimize(s.total());
}
BENCHMARK(bm_latency_record);

void latency_route_shape(benchmark::State& state, bool enabled,
                         std::uint64_t mask) {
  benchmark::DoNotOptimize(enabled);
  metrics::latency_histogram h;
  std::uint64_t tick = 0;
  for (auto _ : state) {
    const bool timed = enabled && ((tick++ & mask) == 0);
    const std::uint64_t t0 = timed ? metrics::wall_ns() : 0;
    benchmark::ClobberMemory();  // stands in for the routed work
    if (timed) h.record(metrics::wall_ns() - t0);
  }
  benchmark::DoNotOptimize(tick);
  metrics::latency_snapshot s;
  h.snapshot_into(s);
  benchmark::DoNotOptimize(s.total());
}

void bm_latency_route_disabled(benchmark::State& state) {
  latency_route_shape(state, false, 0);
}
BENCHMARK(bm_latency_route_disabled);

void bm_latency_route_timed(benchmark::State& state) {
  latency_route_shape(state, true, 0);
}
BENCHMARK(bm_latency_route_timed);

void bm_latency_route_sampled(benchmark::State& state) {
  latency_route_shape(state, true, 63);  // 1-in-64, the recorder default
}
BENCHMARK(bm_latency_route_sampled);

// The flight recorder's rings are trace::rings stamped by rt::emit_now,
// which reads the clock only when the ring is enabled.

void bm_blackbox_emit_disabled(benchmark::State& state) {
  trace::ring ring{"bench"};  // never enabled: emit_now is one null check
  std::uint64_t f = 0;
  for (auto _ : state) {
    rt::emit_now(ring, trace::event_type::route_summary, f, 1);
    ++f;
  }
  benchmark::DoNotOptimize(ring.emitted());
}
BENCHMARK(bm_blackbox_emit_disabled);

void bm_blackbox_emit_enabled(benchmark::State& state) {
  trace::ring ring{"bench"};
  ring.enable(4096);
  std::uint64_t f = 0;
  for (auto _ : state) {
    rt::emit_now(ring, trace::event_type::route_summary, f, 1);
    ++f;
  }
  benchmark::DoNotOptimize(ring.emitted());
}
BENCHMARK(bm_blackbox_emit_enabled);

void bm_blackbox_emit_sampled(benchmark::State& state) {
  // The route-summary shape: per-worker tick, emit 1-in-64.
  trace::ring ring{"bench"};
  ring.enable(4096);
  std::uint64_t f = 0, tick = 0;
  for (auto _ : state) {
    if ((tick++ & 63) == 0) [[unlikely]] {
      rt::emit_now(ring, trace::event_type::route_summary, f, 1);
    }
    ++f;
  }
  benchmark::DoNotOptimize(ring.emitted());
}
BENCHMARK(bm_blackbox_emit_sampled);

/// The library's own display reporter (so --benchmark_color and
/// --benchmark_format apply as without this wrapper), also capturing
/// per-benchmark CPU times so main() can emit the machine-readable
/// BENCH_fastpath.json summary.  Construct after benchmark::Initialize.
class capturing_reporter : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const auto& run : reports) {
      if (!run.error_occurred) {
        cpu_ns[run.benchmark_name()] = run.GetAdjustedCPUTime();
      }
    }
    display_->ReportRuns(reports);
  }
  void Finalize() override { display_->Finalize(); }

  std::map<std::string, double> cpu_ns;

 private:
  std::unique_ptr<benchmark::BenchmarkReporter> display_{
      benchmark::CreateDefaultDisplayReporter()};
};

void write_fastpath_json(const std::map<std::string, double>& cpu_ns) {
  bench::report rep{"fastpath", "snapshot fast-path micro-benchmarks"};
  for (const auto& [name, ns] : cpu_ns) {
    rep.summary(name + ".cpu_ns", ns);
  }
  const auto ratio = [&](const char* num, const char* den) -> double {
    const auto a = cpu_ns.find(num);
    const auto b = cpu_ns.find(den);
    if (a == cpu_ns.end() || b == cpu_ns.end() || b->second == 0.0) return 0.0;
    return a->second / b->second;
  };
  rep.summary("speedup.infer_into_vs_infer_aurora",
              ratio("bm_quantized_infer_aurora",
                    "bm_quantized_infer_into_aurora"));
  rep.summary("speedup.infer_into_vs_infer_ffnn",
              ratio("bm_quantized_infer_ffnn", "bm_quantized_infer_into_ffnn"));
  // The price of 120 live versions over one: > 1 when their arenas do not
  // all stay in cache.
  rep.summary("quant.versions_vs_one_aurora",
              ratio("bm_quantized_infer_into_aurora_versions",
                    "bm_quantized_infer_into_aurora_pool"));
  // ~1.0 when the disabled tracer is free; >1 would flag a hot-path tax.
  rep.summary("trace.disabled_overhead_ratio",
              ratio("bm_traced_infer_into_disabled",
                    "bm_quantized_infer_into_aurora"));
  {
    const auto it = cpu_ns.find("bm_trace_ring_emit");
    rep.summary("trace.enabled_per_event_ns",
                it == cpu_ns.end() ? 0.0 : it->second);
  }
  // Monitor hooks live on the slow path (sync checks / batch flushes), but
  // the same free-when-disabled contract applies.
  // Benches with fixed iteration counts report as "<name>/iterations:N".
  const auto ns_of = [&](const std::string& name) -> double {
    const auto it = cpu_ns.lower_bound(name);
    if (it == cpu_ns.end()) return 0.0;
    if (it->first == name || it->first.rfind(name + "/", 0) == 0) {
      return it->second;
    }
    return 0.0;
  };
  rep.summary("monitor.disabled_check_ns",
              ns_of("bm_monitor_sync_check_disabled"));
  rep.summary("monitor.enabled_check_ns",
              ns_of("bm_monitor_sync_check_enabled"));
  rep.summary("monitor.enabled_batch_rules_ns",
              ns_of("bm_monitor_batch_rules_enabled"));
  // rt live telemetry: the histogram record itself must stay within the
  // <= 5 ns scalar budget, and the disabled route guard within noise of a
  // bare loop (so shipping the layer off costs nothing).
  rep.summary("rt.latency_record_ns", ns_of("bm_latency_record"));
  rep.summary("rt.latency_route_disabled_ns",
              ns_of("bm_latency_route_disabled"));
  rep.summary("rt.latency_route_timed_ns", ns_of("bm_latency_route_timed"));
  rep.summary("rt.latency_route_sampled_ns",
              ns_of("bm_latency_route_sampled"));
  rep.summary("rt.blackbox_emit_disabled_ns",
              ns_of("bm_blackbox_emit_disabled"));
  rep.summary("rt.blackbox_emit_ns", ns_of("bm_blackbox_emit_enabled"));
  rep.summary("rt.blackbox_emit_sampled_ns",
              ns_of("bm_blackbox_emit_sampled"));
  rep.summary("rt.latency_sampled_overhead_ratio",
              ratio("bm_latency_route_disabled", "bm_latency_route_sampled"));
  const std::string path = rep.write();
  if (path.empty()) {
    std::cerr << "warning: failed to write BENCH_fastpath.json\n";
  } else {
    std::cout << "[json] " << path << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  capturing_reporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  write_fastpath_json(reporter.cpu_ns);
  return 0;
}
