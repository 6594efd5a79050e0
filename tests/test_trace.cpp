// Datapath event tracer: ring overwrite semantics and concurrent snapshots,
// collector merge ordering, span derivation, Perfetto export validity, the
// kernelsim label pinning, and an end-to-end traced cc run whose event
// counts must agree with the metrics counters for the same operations.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/cc/cc_experiment.hpp"
#include "kernelsim/cpu.hpp"
#include "util/latency_histogram.hpp"
#include "util/trace.hpp"
#include "util/trace_report.hpp"

namespace {

using namespace lf;

// ------------------------------------------------------------------ ring --

TEST(TraceRing, DisabledRingDropsEventsWithNoSideEffects) {
  trace::ring r{"r"};
  EXPECT_FALSE(r.enabled());
  EXPECT_EQ(r.capacity(), 0u);
  r.emit(1.0, trace::event_type::pkt_enqueue, 1, 2);
  EXPECT_EQ(r.emitted(), 0u);
  EXPECT_EQ(r.size(), 0u);
  EXPECT_TRUE(r.snapshot().empty());
}

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  trace::ring r{"r"};
  r.enable(3);
  EXPECT_EQ(r.capacity(), 4u);
  r.enable(5);
  EXPECT_EQ(r.capacity(), 8u);
  r.enable(8);
  EXPECT_EQ(r.capacity(), 8u);
  r.enable(0);
  EXPECT_FALSE(r.enabled());
}

TEST(TraceRing, OverwritesOldestAtCapacity) {
  trace::ring r{"r"};
  r.enable(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    r.emit(static_cast<double>(i), trace::event_type::pkt_enqueue, i, 0);
  }
  EXPECT_EQ(r.emitted(), 6u);
  EXPECT_EQ(r.size(), 4u);
  EXPECT_EQ(r.overwritten(), 2u);
  const auto events = r.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest retained first: emissions 2..5 survive, 0 and 1 were overwritten.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 2);
    EXPECT_EQ(events[i].a, i + 2);
    EXPECT_DOUBLE_EQ(events[i].t, static_cast<double>(i + 2));
  }
}

TEST(TraceRing, ConcurrentProducersAndSnapshotDecodeWholeEvents) {
  // Three producers and a reader share a capacity-4 ring, so slots are
  // rewritten while snapshot() reads them.  Every field of an event derives
  // from one (producer, counter) pair: a record mixing two emissions shows
  // up as a field that disagrees with `a`.
  trace::ring r{"r"};
  r.enable(4);
  constexpr std::uint64_t k_producers = 3;
  constexpr std::uint64_t k_mix = 0x9e3779b97f4a7c15ULL;
  // Writers take tickets and finish in ticket order, and a ticket starts
  // only once all but the one before it have finished.  At most two emits
  // are then in flight, so no writer is lapped by `capacity` later emits
  // while it is mid-slot (the one case the slot protocol leaves open)
  // whatever the scheduler does.
  std::atomic<std::uint64_t> next_ticket{0};
  std::atomic<std::uint64_t> finished{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < k_producers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t k = 0; !stop.load(); ++k) {
        const std::uint64_t ticket = next_ticket.fetch_add(1);
        while (finished.load() + 1 < ticket) std::this_thread::yield();
        const std::uint64_t a = (p << 32) | k;
        r.emit(static_cast<double>(a), static_cast<trace::event_type>(p), a,
               a * k_mix);
        while (finished.load() != ticket) std::this_thread::yield();
        finished.store(ticket + 1);
      }
    });
  }

  std::uint64_t decoded = 0;
  std::uint64_t torn = 0;
  std::uint64_t out_of_order = 0;
  const auto check = [&](const std::vector<trace::event>& events) {
    for (std::size_t i = 0; i < events.size(); ++i) {
      const trace::event& e = events[i];
      const std::uint64_t p = e.a >> 32;
      const bool whole = p < k_producers &&
                         e.t == static_cast<double>(e.a) &&
                         e.b == e.a * k_mix &&
                         e.type == static_cast<trace::event_type>(p);
      torn += whole ? 0 : 1;
      if (i > 0 && events[i - 1].seq >= e.seq) ++out_of_order;
    }
    decoded += events.size();
  };
  // Time-bounded rather than count-bounded: the number of rewrites that
  // race a read depends on how many CPUs the four threads get.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
  while (std::chrono::steady_clock::now() < until) check(r.snapshot());
  stop.store(true);
  for (std::thread& t : producers) t.join();

  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(out_of_order, 0u);
  EXPECT_GT(decoded, 0u);
  // Quiesced, the ring holds exactly the last `capacity` emissions.
  const auto last = r.snapshot();
  check(last);
  EXPECT_EQ(torn, 0u);
  ASSERT_EQ(last.size(), 4u);
  EXPECT_EQ(last.front().seq, r.emitted() - 4);
}

TEST(TraceRing, ClearResetsCountsButKeepsCapacity) {
  trace::ring r{"r"};
  r.enable(4);
  r.emit(1.0, trace::event_type::pkt_drop, 9, 9);
  r.clear();
  EXPECT_EQ(r.emitted(), 0u);
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.capacity(), 4u);
}

// ------------------------------------------------------------- collector --

TEST(TraceCollector, AttachEnablesRingsOnlyWhenTracingOn) {
  trace::ring a{"a"};
  {
    trace::collector off{};  // disabled by default
    off.attach(a);
    EXPECT_FALSE(a.enabled());
  }
  trace::collector on{trace::collector_config{true, 16}};
  const auto id = on.attach(a, "renamed");
  EXPECT_EQ(id, 0u);
  EXPECT_TRUE(a.enabled());
  EXPECT_EQ(a.capacity(), 16u);
  EXPECT_EQ(on.component_name(0), "renamed");
}

TEST(TraceCollector, MergeSortsByTimestampThenComponentId) {
  trace::collector col{trace::collector_config{true, 8}};
  trace::ring r0{"zero"};
  trace::ring r1{"one"};
  col.attach(r0);
  col.attach(r1);

  // Emit out of global order, with an equal-timestamp collision at t=2.0:
  // component 0 must precede component 1 there, and each ring's own events
  // must stay in emission order.
  r1.emit(2.0, trace::event_type::pkt_enqueue, 10, 0);
  r0.emit(1.0, trace::event_type::pkt_enqueue, 0, 0);
  r0.emit(2.0, trace::event_type::pkt_enqueue, 1, 0);
  r0.emit(2.0, trace::event_type::pkt_enqueue, 2, 0);
  r1.emit(3.0, trace::event_type::pkt_enqueue, 11, 0);

  const auto merged = col.merged();
  ASSERT_EQ(merged.size(), 5u);
  std::vector<std::uint64_t> as;
  for (const auto& m : merged) as.push_back(m.e.a);
  EXPECT_EQ(as, (std::vector<std::uint64_t>{0, 1, 2, 10, 11}));
  // Per-ring seq is the emission index (a=0 was r0's first emission even
  // though r1 emitted earlier in real time).
  EXPECT_EQ(merged[0].e.seq, 0u);
  EXPECT_EQ(merged[0].component, 0u);
  EXPECT_EQ(merged[2].e.seq, 2u);  // r0's third emission, after the tie
  EXPECT_EQ(merged[3].component, 1u);
  EXPECT_EQ(merged[3].e.seq, 0u);

  const auto counts = col.counts_by_type();
  EXPECT_EQ(counts[static_cast<std::size_t>(trace::event_type::pkt_enqueue)],
            5u);
  EXPECT_EQ(col.total_emitted(), 5u);
  EXPECT_EQ(col.total_overwritten(), 0u);
}

// ----------------------------------------------------------------- spans --

TEST(TraceSpans, FifoMatchDropsUnmatchedEvents) {
  trace::collector col{trace::collector_config{true, 16}};
  trace::ring r{"cpu"};
  col.attach(r);

  r.emit(1.0, trace::event_type::task_begin, 0, 100);
  r.emit(2.0, trace::event_type::task_end, 0, 0);
  // End with no surviving begin (simulates an overwritten begin).
  r.emit(3.0, trace::event_type::task_end, 1, 0);
  // Begin left open at the end of the run.
  r.emit(4.0, trace::event_type::task_begin, 2, 50);

  const auto spans = trace::derive_spans(col.merged());
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].begin, 1.0);
  EXPECT_DOUBLE_EQ(spans[0].end, 2.0);
  EXPECT_EQ(spans[0].open, trace::event_type::task_begin);
  EXPECT_EQ(spans[0].a, 0u);
  EXPECT_EQ(spans[0].b, 100u);
}

TEST(TraceSpans, StatsFeedHistogramsWithExactMeans) {
  trace::collector col{trace::collector_config{true, 16}};
  trace::ring r{"core"};
  col.attach(r);
  // Two inference spans of 10us and 30us on different flows.
  r.emit(0.0, trace::event_type::inference_begin, 1, 1);
  r.emit(10e-6, trace::event_type::inference_end, 1, 1);
  r.emit(1.0, trace::event_type::inference_begin, 2, 1);
  r.emit(1.0 + 30e-6, trace::event_type::inference_end, 2, 1);
  r.emit(2.0, trace::event_type::lock_acquire, 200, 40);

  trace::span_stats stats;
  trace::derive_span_stats(col, stats);
  EXPECT_EQ(stats.inference_us.count.value(), 2u);
  EXPECT_NEAR(stats.inference_us.mean.value(), 20.0, 1e-9);
  EXPECT_EQ(stats.task_us.count.value(), 0u);
  EXPECT_EQ(stats.lock_hold_ns.count.value(), 1u);
  EXPECT_NEAR(stats.lock_hold_ns.mean.value(), 200.0, 1e-9);
  EXPECT_NEAR(stats.lock_wait_ns.mean.value(), 40.0, 1e-9);
  // The log2 histograms hold the same samples in nanoseconds.
  metrics::latency_snapshot inference;
  stats.inference_us.ns.snapshot_into(inference);
  EXPECT_EQ(inference.total(), 2u);
  EXPECT_EQ(inference.counts[metrics::latency_histogram::bucket_index(10000)],
            1u);
  EXPECT_EQ(inference.counts[metrics::latency_histogram::bucket_index(30000)],
            1u);
  metrics::latency_snapshot hold;
  stats.lock_hold_ns.ns.snapshot_into(hold);
  EXPECT_EQ(hold.counts[metrics::latency_histogram::bucket_index(200)], 1u);

  metrics::registry reg;
  trace::register_span_stats(stats, reg, "trace");
  const auto scalars = reg.scalars();
  const auto find = [&](const std::string& key) -> const double* {
    for (const auto& [name, value] : scalars) {
      if (name == key) return &value;
    }
    return nullptr;
  };
  const double* count = find("trace.span.inference_us.count");
  const double* mean = find("trace.span.inference_us.mean");
  ASSERT_NE(count, nullptr);
  ASSERT_NE(mean, nullptr);
  EXPECT_DOUBLE_EQ(*count, 2.0);
  EXPECT_NEAR(*mean, 20.0, 1e-9);
}

// --------------------------------------------------------- perfetto json --

// Minimal scan of the emitted traceEvents lines (one entry per line):
// extracts (ph, tid, ts) for every non-metadata event.
struct scanned_event {
  char ph = '?';
  int tid = -1;
  double ts = 0.0;
};

std::vector<scanned_event> scan_trace_events(const std::string& json) {
  std::vector<scanned_event> out;
  std::istringstream is{json};
  std::string line;
  while (std::getline(is, line)) {
    const auto ph = line.find("\"ph\":\"");
    if (ph == std::string::npos) continue;
    scanned_event ev;
    ev.ph = line[ph + 6];
    if (ev.ph == 'M') continue;  // metadata has no timestamp
    const auto ts = line.find("\"ts\":");
    const auto tid = line.find("\"tid\":");
    if (ts == std::string::npos || tid == std::string::npos) continue;
    ev.ts = std::strtod(line.c_str() + ts + 5, nullptr);
    ev.tid = static_cast<int>(std::strtol(line.c_str() + tid + 6, nullptr, 10));
    out.push_back(ev);
  }
  return out;
}

TEST(TracePerfetto, BalancedSpansAndSortedTimestamps) {
  trace::collector col{trace::collector_config{true, 64}};
  trace::ring cpu{"cpu"};
  trace::ring core{"core"};
  col.attach(cpu);
  col.attach(core);

  // Sequential task spans (B/E), one zero-duration pair, overlapping
  // inference spans (X), a dangling end and a dangling begin that must both
  // be dropped, plus instants.
  cpu.emit(0.0, trace::event_type::task_begin, 0, 100);
  cpu.emit(1e-5, trace::event_type::task_end, 0, 0);
  cpu.emit(2e-5, trace::event_type::task_begin, 1, 0);
  cpu.emit(2e-5, trace::event_type::task_end, 1, 0);  // zero duration
  cpu.emit(3e-5, trace::event_type::task_end, 2, 0);  // begin overwritten
  cpu.emit(4e-5, trace::event_type::task_begin, 3, 0);  // still open
  core.emit(0.0, trace::event_type::inference_begin, 7, 1);
  core.emit(5e-6, trace::event_type::inference_begin, 8, 1);
  core.emit(1.5e-5, trace::event_type::inference_end, 7, 1);
  core.emit(2.5e-5, trace::event_type::inference_end, 8, 1);
  core.emit(3e-5, trace::event_type::snapshot_switch, 2, 120);

  const std::string json = trace::perfetto_json(col);
  ASSERT_NE(json.find("\"traceEvents\""), std::string::npos);
  ASSERT_NE(json.find("\"liteflow\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);

  const auto events = scan_trace_events(json);
  ASSERT_FALSE(events.empty());

  // Timestamps non-decreasing across the whole stream.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts, events[i].ts) << "at entry " << i;
  }

  // B/E balanced per tid, depth never negative in stream order.
  int depth[2] = {0, 0};
  int begins = 0;
  int ends = 0;
  int completes = 0;
  for (const auto& ev : events) {
    ASSERT_GE(ev.tid, 0);
    ASSERT_LT(ev.tid, 2);
    if (ev.ph == 'B') {
      ++begins;
      ++depth[ev.tid];
    } else if (ev.ph == 'E') {
      ++ends;
      --depth[ev.tid];
      EXPECT_GE(depth[ev.tid], 0) << "E before matching B";
    } else if (ev.ph == 'X') {
      ++completes;
    }
  }
  EXPECT_EQ(depth[0], 0);
  EXPECT_EQ(depth[1], 0);
  EXPECT_EQ(begins, 2);  // dangling begin and orphan end were dropped
  EXPECT_EQ(ends, begins);
  EXPECT_EQ(completes, 2);
}

TEST(TracePerfetto, MixedTimeDomainsExportBalancedAndOrdered) {
  // A sim-seconds ring (the simulator tracer) and a wall-ns ring (the rt
  // flight recorder) share one collector.  Both convert to microseconds on
  // export, wall-ns relative to the oldest wall-ns event (500 ns), so the
  // merged stream must interleave: 500 ns exports at 0, before 1 us of sim
  // time, which lands before 2500 ns (2 us).
  trace::collector col{trace::collector_config{true, 64}};
  trace::ring sim{"sim"};
  trace::ring wall{"rt"};
  wall.set_domain(trace::time_domain::wall_ns);
  ASSERT_EQ(sim.domain(), trace::time_domain::sim_seconds);
  ASSERT_EQ(wall.domain(), trace::time_domain::wall_ns);
  col.attach(sim);
  col.attach(wall);

  sim.emit(1e-6, trace::event_type::task_begin, 0, 100);
  sim.emit(3e-6, trace::event_type::task_end, 0, 0);
  wall.emit(500.0, trace::event_type::route_summary, 42, 1);
  wall.emit(2500.0, trace::event_type::invariant_violation, 42,
            (std::uint64_t{1} << 32) | 2);
  wall.emit(4000.0, trace::event_type::snapshot_switch, 0, 0);

  const std::string json = trace::perfetto_json(col);
  EXPECT_NE(json.find("\"invariant_violation\""), std::string::npos);
  EXPECT_NE(json.find("\"expected_gen\":1"), std::string::npos);
  EXPECT_NE(json.find("\"observed_gen\":2"), std::string::npos);

  const auto events = scan_trace_events(json);
  ASSERT_FALSE(events.empty());
  // One exported microsecond timeline: non-decreasing throughout, spans
  // balanced even though instants from the other domain interleave.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts, events[i].ts) << "at entry " << i;
  }
  int depth = 0;
  int instants = 0;
  for (const auto& ev : events) {
    if (ev.ph == 'B') ++depth;
    if (ev.ph == 'E') {
      --depth;
      EXPECT_GE(depth, 0);
    }
    if (ev.ph == 'i') ++instants;
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(instants, 3);
  // The oldest wall-ns instant exports at 0 and precedes the sim-seconds
  // span begin at 1 us.
  EXPECT_DOUBLE_EQ(events.front().ts, 0.0);
  EXPECT_EQ(events.front().ph, 'i');
}

TEST(TracePerfetto, TaskCategoryLabelsPinnedToKernelsim) {
  // util cannot include kernelsim, so trace_report hardcodes the labels;
  // this pins the copies to the kernelsim names (plus the out-of-range
  // fallback matching task_category::other).
  for (std::size_t c = 0; c < kernelsim::task_category_count; ++c) {
    EXPECT_EQ(trace::task_category_label(c),
              kernelsim::to_string(static_cast<kernelsim::task_category>(c)))
        << "category " << c;
  }
  EXPECT_EQ(trace::task_category_label(999), "other");
}

// ------------------------------------------------------------ env config --

TEST(TraceConfig, EnvironmentControlsEnableAndCapacity) {
  ::setenv("LF_TRACE", "1", 1);
  ::setenv("LF_TRACE_RING", "128", 1);
  const auto on = trace::config_from_env();
  EXPECT_TRUE(on.enabled);
  EXPECT_EQ(on.ring_capacity, 128u);
  ::setenv("LF_TRACE", "0", 1);
  ::unsetenv("LF_TRACE_RING");
  const auto off = trace::config_from_env();
  EXPECT_FALSE(off.enabled);
  EXPECT_EQ(off.ring_capacity, 4096u);
  ::unsetenv("LF_TRACE");
}

// ------------------------------------------------------------ end to end --

TEST(TraceIntegration, CcFastSeedEventCountsMatchMetricsCounters) {
  const std::string dir = ::testing::TempDir();
  ::setenv("LF_BENCH_OUT", dir.c_str(), 1);

  apps::cc_single_flow_config cfg;
  cfg.scheme = apps::cc_scheme::lf_aurora;
  cfg.duration = 2.0;
  cfg.warmup = 0.5;
  cfg.pretrain_iterations = 100;
  cfg.net.bottleneck_bps = 200e6;
  cfg.seed = 12345;
  apps::trace_options topt;
  topt.collector.enabled = true;
  topt.collector.ring_capacity = 1 << 16;
  topt.label = "test_cc";
  cfg.trace = topt;
  const auto result = apps::run_cc_single_flow(cfg);
  ::unsetenv("LF_BENCH_OUT");

  // The low-frequency control-plane events cannot have wrapped a 64k ring
  // in a 2 s run, so retained trace counts must equal the metrics counters
  // for the identical operations.
  ASSERT_TRUE(result.telemetry.count("trace.events.snapshot_switch"));
  ASSERT_TRUE(result.telemetry.count("cc.core.router.switches"));
  EXPECT_DOUBLE_EQ(result.telemetry.at("trace.events.snapshot_switch"),
                   result.telemetry.at("cc.core.router.switches"));
  ASSERT_TRUE(result.telemetry.count("trace.events.batch_flush"));
  ASSERT_TRUE(result.telemetry.count("cc.collector.batches"));
  EXPECT_DOUBLE_EQ(result.telemetry.at("trace.events.batch_flush"),
                   result.telemetry.at("cc.collector.batches"));
  EXPECT_GT(result.telemetry.at("trace.events.snapshot_switch"), 0.0);
  EXPECT_GT(result.telemetry.at("trace.events.batch_flush"), 0.0);

  // Derived span stats landed in the same telemetry map.
  ASSERT_TRUE(result.telemetry.count("trace.span.inference_us.count"));
  EXPECT_GT(result.telemetry.at("trace.span.inference_us.count"), 0.0);

  // And the Perfetto file is on disk, balanced and sorted.
  ASSERT_FALSE(result.trace_path.empty());
  EXPECT_TRUE(std::filesystem::exists(result.trace_path));
  EXPECT_NE(result.trace_path.find("TRACE_test_cc.json"), std::string::npos);
  std::ifstream is{result.trace_path};
  std::stringstream buf;
  buf << is.rdbuf();
  const std::string json = buf.str();
  ASSERT_NE(json.find("\"traceEvents\""), std::string::npos);
  const auto events = scan_trace_events(json);
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 1; i < events.size(); ++i) {
    ASSERT_LE(events[i - 1].ts, events[i].ts) << "at entry " << i;
  }
  std::filesystem::remove(result.trace_path);
}

TEST(TraceIntegration, TracingOffByDefaultLeavesNoArtifacts) {
  apps::cc_single_flow_config cfg;
  cfg.scheme = apps::cc_scheme::cubic;
  cfg.duration = 0.5;
  cfg.warmup = 0.1;
  cfg.seed = 3;
  apps::trace_options topt;  // default-constructed: disabled
  topt.collector.enabled = false;
  cfg.trace = topt;
  const auto result = apps::run_cc_single_flow(cfg);
  EXPECT_TRUE(result.trace_path.empty());
  EXPECT_EQ(result.telemetry.count("trace.events.pkt_enqueue"), 0u);
}

}  // namespace
