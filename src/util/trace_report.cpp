#include "util/trace_report.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "util/bench_report.hpp"

namespace lf::trace {
namespace {

using bench::json_escape;
using bench::json_number;

/// One serialized traceEvents entry plus its sort key.  Events are
/// generated in merged-stream order and stable-sorted by timestamp, which
/// keeps B before E (and E before the next same-ts B) for zero-duration
/// spans — generation order is the tie-break.
struct emitted {
  double ts = 0.0;
  std::string json;
};

std::string args_for(const event& e) {
  std::ostringstream os;
  switch (e.type) {
    case event_type::snapshot_install:
      os << "{\"model\":" << e.a << ",\"version\":" << e.b << "}";
      break;
    case event_type::snapshot_switch:
      os << "{\"active_model\":" << e.a << ",\"lock_wait_ns\":" << e.b << "}";
      break;
    case event_type::flow_cache_evict:
      os << "{\"flow\":" << e.a << ",\"model\":" << e.b << "}";
      break;
    case event_type::batch_flush:
      os << "{\"samples\":" << e.a << ",\"bytes\":" << e.b << "}";
      break;
    case event_type::sync_decision:
      os << "{\"converged\":" << ((e.a & 1) ? "true" : "false")
         << ",\"necessary\":" << ((e.a & 2) ? "true" : "false")
         << ",\"min_loss_1e9\":" << e.b << "}";
      break;
    case event_type::lock_acquire:
      os << "{\"hold_ns\":" << e.a << ",\"wait_ns\":" << e.b << "}";
      break;
    case event_type::lock_contend:
      os << "{\"wait_ns\":" << e.a << "}";
      break;
    case event_type::ecn_mark:
      os << "{\"flow\":" << e.a << ",\"queued_bytes\":" << e.b << "}";
      break;
    case event_type::pkt_enqueue:
    case event_type::pkt_drop:
      os << "{\"flow\":" << e.a << ",\"bytes\":" << e.b << "}";
      break;
    case event_type::flow_complete:
      os << "{\"flow\":" << e.a << ",\"fct_ns\":" << e.b << "}";
      break;
    case event_type::alert:
      os << "{\"kind\":" << e.a << ",\"value_1e9\":" << e.b << "}";
      break;
    case event_type::route_summary:
      os << "{\"key\":" << e.a << ",\"gen\":" << e.b << "}";
      break;
    case event_type::gate_verdict:
      os << "{\"model\":" << (e.a >> 1)
         << ",\"admitted\":" << ((e.a & 1) ? "true" : "false")
         << ",\"mean_divergence_1e9\":" << e.b << "}";
      break;
    case event_type::zombie_push:
      os << "{\"gen\":" << e.a << ",\"switch_epoch\":" << e.b << "}";
      break;
    case event_type::version_reclaim:
      os << "{\"freed\":" << e.a << ",\"retired\":" << e.b << "}";
      break;
    case event_type::invariant_violation:
      os << "{\"key\":" << e.a << ",\"expected_gen\":" << (e.b >> 32)
         << ",\"observed_gen\":" << (e.b & 0xffffffffULL) << "}";
      break;
    case event_type::anomaly:
      os << "{\"kind\":" << e.a << ",\"value_1e3\":" << e.b << "}";
      break;
    case event_type::lifecycle_stage:
      os << "{\"stage\":\"" << to_string(lifecycle_phase_of(e.a))
         << "\",\"model\":" << lifecycle_model_of(e.a)
         << ",\"version\":" << lifecycle_version_of(e.a)
         << ",\"cost_ns\":" << e.b << "}";
      break;
    case event_type::snapshot_rollback:
      os << "{\"model\":" << (e.a >> 32)
         << ",\"repromoted_gen\":" << (e.a & 0xffffffffULL)
         << ",\"regressed_gen\":" << e.b << "}";
      break;
    default:
      os << "{\"a\":" << e.a << ",\"b\":" << e.b << "}";
  }
  return os.str();
}

std::string instant_json(const merged_event& m) {
  std::ostringstream os;
  os << "{\"name\":\"" << to_string(m.e.type) << "\",\"ph\":\"i\",\"s\":\"t\""
     << ",\"ts\":" << json_number(m.us) << ",\"pid\":0"
     << ",\"tid\":" << m.component << ",\"args\":" << args_for(m.e) << "}";
  return os.str();
}

}  // namespace

std::string_view task_category_label(std::uint64_t category) noexcept {
  switch (category) {
    case 0: return "datapath";
    case 1: return "softirq";
    case 2: return "user_nn";
    case 3: return "user_train";
    case 4: return "kernel_train";
    default: return "other";
  }
}

std::vector<span> derive_spans(const std::vector<merged_event>& events) {
  std::vector<span> out;
  // FIFO per (component, open type, a): the merged stream is causally
  // ordered, so the oldest open begin with a matching key is the pair.
  std::map<std::tuple<std::uint32_t, event_type, std::uint64_t>,
           std::vector<const merged_event*>>
      open;
  for (const merged_event& m : events) {
    if (is_span_begin(m.e.type)) {
      open[{m.component, m.e.type, m.e.a}].push_back(&m);
      continue;
    }
    const event_type opener = [&]() {
      switch (m.e.type) {
        case event_type::inference_end: return event_type::inference_begin;
        case event_type::task_end: return event_type::task_begin;
        default: return m.e.type;  // not a span end
      }
    }();
    if (opener == m.e.type) continue;
    auto it = open.find({m.component, opener, m.e.a});
    if (it == open.end() || it->second.empty()) continue;  // begin overwritten
    const merged_event* b = it->second.front();
    it->second.erase(it->second.begin());
    out.push_back(span{b->e.t, m.e.t, b->us, m.us, m.domain, m.component,
                       opener, b->e.a, b->e.b});
  }
  return out;
}

void span_stat::observe(double v) noexcept {
  count.inc();
  sum += v;
  mean.set(sum / static_cast<double>(count.value()));
  ns.record(static_cast<std::uint64_t>(std::max(0.0, v * ns_per_unit) + 0.5));
}

void derive_span_stats(const collector& col, span_stats& out) {
  const auto events = col.merged();
  for (const span& s : derive_spans(events)) {
    // One rounding on the raw delta (not a difference of two
    // separately-rounded timestamps): durations stay bit-exact with the
    // pre-time-domain exporter for sim rings.
    const double us = to_export_us(s.domain, s.end - s.begin);
    if (s.open == event_type::inference_begin) {
      out.inference_us.observe(us);
    } else {
      out.task_us.observe(us);
    }
  }
  for (const merged_event& m : events) {
    if (m.e.type == event_type::lock_acquire) {
      out.lock_hold_ns.observe(static_cast<double>(m.e.a));
      out.lock_wait_ns.observe(static_cast<double>(m.e.b));
    }
  }
}

void register_span_stats(span_stats& stats, metrics::registry& reg,
                         const std::string& prefix) {
  for (auto& [name, stat] : {std::pair{"inference_us", &stats.inference_us},
                             std::pair{"task_us", &stats.task_us},
                             std::pair{"lock_hold_ns", &stats.lock_hold_ns},
                             std::pair{"lock_wait_ns", &stats.lock_wait_ns}}) {
    const std::string base = prefix + ".span." + name;
    reg.register_counter(base + ".count", stat->count);
    reg.register_gauge(base + ".mean", stat->mean);
  }
}

std::string perfetto_json(const collector& col) {
  const auto merged_events = col.merged();

  std::vector<emitted> out;
  out.reserve(merged_events.size() + col.ring_count());

  // Walk the causal stream once: instants emit in place; span ends emit
  // their whole pair (the begin entry carries the earlier timestamp and is
  // moved into place by the final stable sort).
  struct open_mark {
    double t = 0.0;   ///< raw ring-domain units, for single-rounding durs
    double us = 0.0;  ///< exported microseconds
  };
  std::map<std::tuple<std::uint32_t, event_type, std::uint64_t>,
           std::vector<open_mark>>
      open;
  // All exported timestamps come from merged_event::us (already normalized
  // per the source ring's time domain), so wall-ns flight-recorder rings and
  // sim-second rings share one timeline.  Durations convert the raw delta
  // once instead of subtracting two rounded timestamps.
  for (const merged_event& m : merged_events) {
    switch (m.e.type) {
      case event_type::inference_begin:
      case event_type::task_begin:
        open[{m.component, m.e.type, m.e.a}].push_back(
            open_mark{m.e.t, m.us});
        break;
      case event_type::inference_end: {
        auto it = open.find({m.component, event_type::inference_begin, m.e.a});
        if (it == open.end() || it->second.empty()) break;
        const open_mark begin = it->second.front();
        it->second.erase(it->second.begin());
        std::ostringstream os;
        os << "{\"name\":\"inference\",\"ph\":\"X\",\"ts\":"
           << json_number(begin.us) << ",\"dur\":"
           << json_number(to_export_us(m.domain, m.e.t - begin.t))
           << ",\"pid\":0,\"tid\":" << m.component << ",\"args\":{\"flow\":"
           << m.e.a << ",\"model\":" << m.e.b << "}}";
        out.push_back(emitted{begin.us, os.str()});
        break;
      }
      case event_type::task_end: {
        auto it = open.find({m.component, event_type::task_begin, m.e.a});
        if (it == open.end() || it->second.empty()) break;
        const double begin = it->second.front().us;
        it->second.erase(it->second.begin());
        const std::string name{task_category_label(m.e.a)};
        std::ostringstream b;
        b << "{\"name\":\"" << name << "\",\"ph\":\"B\",\"ts\":"
          << json_number(begin)
          << ",\"pid\":0,\"tid\":" << m.component << "}";
        out.push_back(emitted{begin, b.str()});
        std::ostringstream e;
        e << "{\"name\":\"" << name << "\",\"ph\":\"E\",\"ts\":"
          << json_number(m.us)
          << ",\"pid\":0,\"tid\":" << m.component << "}";
        out.push_back(emitted{m.us, e.str()});
        break;
      }
      default:
        out.push_back(emitted{m.us, instant_json(m)});
    }
  }

  // Perfetto wants ts-sorted streams per thread; stable keeps generation
  // order as the tie-break (B before E at equal ts).
  std::stable_sort(out.begin(), out.end(),
                   [](const emitted& x, const emitted& y) {
                     return x.ts < y.ts;
                   });

  std::ostringstream os;
  os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  os << "\n    {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
        "\"args\":{\"name\":\"liteflow-sim\"}}";
  for (std::uint32_t c = 0; c < col.ring_count(); ++c) {
    os << ",\n    {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
       << c << ",\"args\":{\"name\":\""
       << json_escape(col.component_name(c)) << "\"}}";
  }
  for (const emitted& e : out) {
    os << ",\n    " << e.json;
  }
  os << "\n  ],\n";

  os << "  \"liteflow\": {\n"
     << "    \"total_emitted\": " << col.total_emitted() << ",\n"
     << "    \"total_overwritten\": " << col.total_overwritten() << ",\n"
     << "    \"components\": [";
  for (std::uint32_t c = 0; c < col.ring_count(); ++c) {
    const ring& r = col.ring_at(c);
    os << (c ? "," : "") << "\n      {\"name\": \"" << json_escape(r.name())
       << "\", \"emitted\": " << r.emitted()
       << ", \"overwritten\": " << r.overwritten()
       << ", \"capacity\": " << r.capacity() << "}";
  }
  os << (col.ring_count() ? "\n    " : "") << "]\n  }\n}\n";
  return os.str();
}

std::string write_trace(const collector& col, std::string_view label,
                        std::string_view prefix) {
  return bench::write_artifact(bench::artifact_path(prefix, label, ".json"),
                               perfetto_json(col));
}

}  // namespace lf::trace
